(** Shared chassis for geometric mobility models: owns the step/edge
    bookkeeping (per-snapshot edge caching, per-node substreams) while
    the concrete model supplies only "how a node initialises" and "how
    a node moves". Two nodes are connected whenever their Euclidean
    distance is at most the transmission radius — the standard
    connection map of Section 4.1. *)

type t

val make :
  n:int ->
  l:float ->
  r:float ->
  xs:float array ->
  ys:float array ->
  reset_node:(Prng.Rng.t -> int -> unit) ->
  move_node:(Prng.Rng.t -> int -> unit) ->
  t
(** The model owns [xs]/[ys] (positions in [\[0, l\]²]) and mutates them
    through [reset_node] / [move_node]; the chassis calls [reset_node]
    once per node on reset and [move_node] once per node per step, each
    time passing that node's private substream. Raises
    [Invalid_argument] unless [l] is finite and positive and [r >= 0]
    (a NaN radius is rejected). *)

val n : t -> int
val l : t -> float
val r : t -> float
val position : t -> int -> float * float
val positions : t -> (float * float) array
val reset : t -> Prng.Rng.t -> unit

val step : t -> unit
(** Moves every node once. Raises [Invalid_argument] before the first
    {!reset}, which seeds the per-node substreams. *)

val dynamic : t -> Core.Dynamic.t
(** View as a dynamic graph. The view shares state with [t]: resetting
    or stepping one affects the other. Edges come from
    {!Space.iter_close_pairs}, cached per step. The view carries a
    {!Core.Dynamic.boundary} hook backed by {!Space.iter_boundary}, so
    plain flooding asks the grid for the informed set's new neighbours
    instead of enumerating the snapshot. *)
