(** A forwarding {!Core.Dynamic.t} that times every call into the model
    it wraps, from outside the library.

    The consumers' loop shape is what lets this split a flood's time by
    layer: {!Core.Adj_sync.ensure} rebuilds the adjacency through
    [iter_edges] and {!Core.Adj_sync.advance} applies a step's deltas
    inside the [deltas] callbacks, so

    - [dynamic.step] is the model's own step,
    - [dynamic.deltas] is delta emission plus adjacency delta-apply,
    - [dynamic.iter_edges] is a full adjacency rebuild,
    - [dynamic.fill_edges] is a snapshot enumeration (models without
      deltas),
    - [dynamic.reset] is the initial-configuration draw,

    and whatever remains of a flood's wall time is the flooding
    kernel's own frontier work. The wrapper forwards the model's
    capabilities unchanged ({!Core.Dynamic.has_deltas},
    {!Core.Dynamic.delta_size}, {!Core.Dynamic.expected_edges}), so the
    flooding kernel takes the same path and draws the same randomness
    with and without it. It must be the outermost model: its
    [fill_edges] clears the buffer it is given. *)

type t

val wrap :
  clock:(unit -> float) -> on_call:(string -> float -> float -> unit) -> Core.Dynamic.t -> t
(** While enabled, every call into the model reports
    [on_call name start stop]. Starts disabled. *)

val model : t -> Core.Dynamic.t

val set_enabled : t -> bool -> unit
(** Disabled, the wrapper forwards without reading the clock or
    counting. *)

val rebuilds : t -> int
(** [iter_edges] calls made while enabled: full adjacency rebuilds. *)

val deltas_declined : t -> int
(** [deltas] calls that returned [false] while enabled. *)
