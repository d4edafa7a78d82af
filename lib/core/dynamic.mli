(** Dynamic graphs: stochastic processes G([n], {E_t}).

    A value of type {!t} owns hidden mutable state (node positions, edge
    chain states, ...). [reset rng] (re)initialises that state — drawing
    the initial configuration from the model's initial distribution using
    [rng] — and produces the snapshot E_0. Each [step ()] advances the
    process one time unit to the next snapshot. [iter_edges f] visits
    every edge of the *current* snapshot exactly once (in either
    orientation).

    All concrete models in this repository (edge-MEGs, node-MEGs,
    mobility models, random-path models) are exposed through this one
    interface, which is what lets the flooding analysis run unchanged
    over all of them — the code-level counterpart of the paper's claim
    of generality. *)

type t

val make :
  ?fill_edges:(Graph.Edge_buffer.t -> unit) ->
  ?deltas:(birth:(int -> int -> unit) -> death:(int -> int -> unit) -> bool) ->
  ?delta_size:(unit -> int) ->
  ?boundary:(Graph.Storage.Bitset.t -> (int -> unit) -> int) ->
  ?expected_edges:int ->
  n:int ->
  reset:(Prng.Rng.t -> unit) ->
  step:(unit -> unit) ->
  iter_edges:((int -> int -> unit) -> unit) ->
  unit ->
  t
(** Wrap a model. [n] is the (fixed) number of nodes.

    [fill_edges] is ignored. A model enumerates its snapshot once, in
    [iter_edges], and {!fill_edges} is derived from it; the argument
    stays only for existing callers.

    [deltas], when given, makes the model {e delta-capable}: after each
    [step] it reports the edge changes of that step — every born edge
    through [birth], every died edge through [death] — and returns
    [true], or returns [false] to decline (any callbacks already issued
    may then be discarded; the consumer must re-enumerate). The full
    contract is documented on the {!deltas} accessor and in DESIGN.md
    section 8.

    [delta_size], when given, must be O(1) and estimate how many
    birth/death events the pending [deltas] report would emit (0 when
    the report would decline). It is purely advisory — consumers use
    it to choose between applying deltas and rebuilding from the
    snapshot, so an approximate value only ever costs performance,
    never correctness.

    [boundary], when given, answers the one question plain flooding
    asks of a snapshot — which nodes outside a set have a neighbour
    inside it — without enumerating the snapshot. When omitted, one is
    derived from [iter_edges]. Its contract is on the {!boundary}
    accessor.

    [expected_edges] is a hint — a typical snapshot's edge count — used
    to size {!snapshot_graph}'s buffer. Purely a capacity guess;
    correctness never depends on it. *)

val n : t -> int
(** Number of nodes. *)

val reset : t -> Prng.Rng.t -> unit
(** Draw a fresh initial configuration; the current snapshot becomes
    E_0. The model must keep (a split of) [rng] for its own later use. *)

val step : t -> unit
(** Advance to the next snapshot. Undefined before the first {!reset}. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate the current snapshot's edges, each exactly once. *)

val fill_edges : t -> Graph.Edge_buffer.t -> unit
(** [fill_edges t buf] clears [buf] and pushes every edge that one
    {!iter_edges} call visits, in that order. Derived, not a model
    hook: it is exactly one enumeration, so on {!filter_edges} it draws
    the same keep coins an [iter_edges] call would. A caller reusing
    one buffer across steps allocates nothing once the buffer has
    grown. *)

val delta_size : t -> int option
(** [delta_size t] is the model's O(1) estimate of how many birth/death
    events {!deltas} would currently emit, or [None] when the model
    offers no estimate. Advisory (see {!make}): consumers compare it
    against the cost of a snapshot rebuild and may skip consuming the
    report entirely when applying it would be slower. *)

val has_deltas : t -> bool
(** Whether the model carries a native delta hook. A static capability:
    it never changes over the life of the value, so consumers can pick
    their scan strategy once per run. Even a capable model may still
    {e decline} individual steps (see {!deltas}). *)

val deltas : t -> birth:(int -> int -> unit) -> death:(int -> int -> unit) -> bool
(** [deltas t ~birth ~death] reports the edge changes of the most
    recent {!step} and returns [true], or returns [false] — always, for
    a model without the hook ({!has_deltas}), and per-step when a
    capable model declines (e.g. right after {!reset}, or when the
    change set would be more expensive to emit than a re-enumeration).

    Contract, for implementors and consumers alike:
    {ul
    {- Valid only between a [step] and the next [reset]/[step], and
       must be consumed at most once per step: the reported changes
       turn the {e previous} snapshot's edge multiset into the current
       one, so a consumer that skips (or double-consumes) a step must
       re-enumerate instead.}
    {- Births and deaths are disjoint {e as multisets}: an edge is
       reported dead once per disappearing copy and born once per
       appearing copy (copies arise under {!union}). Order within the
       report is unspecified but deterministic.}
    {- On [false], callbacks may already have fired; the consumer must
       treat its incremental state as garbage and rebuild from
       {!iter_edges}.}
    {- {!union} forwards both operands' reports verbatim, and
       [subsample ~every:1] is the model itself; {!filter_edges}
       synthesises its own from its keep-decision caches. Enumerating
       a {!filter_edges} snapshot through this hook draws the same
       coins in the same order as {!iter_edges} would have, so golden
       results of enumeration-order-independent protocols are
       unaffected.}} *)

val boundary : t -> Graph.Storage.Bitset.t -> (int -> unit) -> int
(** [boundary t inside f] calls [f v] exactly once for each node [v]
    outside [inside] that has a neighbour inside it in the current
    snapshot, and returns the number of candidate pairs it tested (a
    work count for metrics, not part of the answer). [inside] has one
    bit per node; a set of another length raises [Invalid_argument].
    Every model answers.

    Contract, for implementors and consumers alike:
    {ul
    {- The reported set is exactly the nodes that [iter_edges] would
       reveal as [inside]'s new neighbours: the nodes of N_t(I_t)
       outside I_t, on the same graph. Report order is unspecified but
       deterministic.}
    {- A native hook (the grid mobility models, the classic edge-MEG)
       draws no randomness and leaves the model's state alone, so
       calling it between two steps, once or not at all, changes no
       later snapshot.}
    {- The derived hook, on a model built without one, is one
       {!iter_edges} pass: an edge with exactly one endpoint inside
       reports the other, and the return value is the number of edges
       read. It reads the snapshot exactly as a first enumeration
       would, so on {!filter_edges} it draws that step's keep coins,
       in enumeration order. An endpoint outside [\[0, n)] raises
       [Invalid_argument].}
    {- Protocols that draw a coin per edge (Push) cannot use it: they
       need the edges themselves, in enumeration order.}} *)

val expected_edges : t -> int
(** The model's {!make}-supplied edge-count hint, or a [4 * n]
    heuristic when absent. Always at least 1. A buffer-sizing guess,
    nothing more. *)

val snapshot_edges : t -> (int * int) list
(** Materialise the current snapshot as an edge list with [u < v]. *)

val snapshot_graph : t -> Graph.Static.t
(** Materialise the current snapshot as a static graph. *)

val adjacency : t -> int list array
(** Current snapshot as adjacency lists (both directions). *)

val edge_count : t -> int
(** Number of edges in the current snapshot. *)

val isolated_fraction : t -> float
(** Fraction of nodes with no incident edge in the current snapshot. *)

val of_static : Graph.Static.t -> t
(** The constant process: every snapshot is the given graph. *)

val of_snapshots : n:int -> (int * int) list array -> t
(** Deterministic process cycling through the given finite snapshot
    sequence; mainly for tests. [reset] restarts at index 0. *)

val filter_edges : p_keep:float -> t -> t
(** [filter_edges ~p_keep g] is the "virtual dynamic graph" of the
    paper's Section 5: each snapshot edge of [g] is kept independently
    with probability [p_keep], fresh randomness each step. Resetting the
    filtered process resets [g] with a split of the provided generator
    and re-seeds the filter with another split.

    The filter has no generator until the first {!reset}: enumerating
    the snapshot before one raises [Invalid_argument] (it used to draw
    silently from a fixed fallback stream seeded with 0). Within one
    snapshot, keep decisions are cached per edge (int-keyed by
    {!Graph.Pairs} index — no allocation per query), so repeated
    enumerations agree; the coins are drawn in first-enumeration
    order.

    Always delta-capable regardless of the inner model: the hook diffs
    this step's keep decisions against the previous step's, declining
    only when the previous snapshot was never fully enumerated. Its
    {!boundary} is the derived one: keep decisions are coins drawn per
    enumerated edge, so the query enumerates the filtered snapshot. *)

val union : t -> t -> t
(** Superposition of two processes on the same node set: an edge is
    present when present in either. Both advance in lock-step. Edges may
    be reported twice (consumers tolerate duplicates — the delta
    protocol and {!Graph.Mutable_adj} treat snapshots as multisets for
    exactly this reason). Delta-capable iff both operands are: the
    operands' streams are forwarded verbatim. Its {!boundary} is the
    derived one, over both operands' edges. *)

val subsample : every:int -> t -> t
(** [subsample ~every:m g] observes only every m-th snapshot of [g]:
    one [step] of the result advances [g] by [m] steps. This is the
    epoch-granularity view used throughout the paper's analysis (its
    lemmas only look at the graph at times τM); flooding on the
    subsampled process, multiplied by [m], upper-bounds flooding on
    [g], and the gap measures the slack the epoch argument gives
    away.

    [subsample ~every:1 g] is [g] itself. For m >= 2 the result is not
    delta-capable: [g]'s reports are per sub-step. It forwards [g]'s
    {!boundary} hook, which always answers for the current (observed)
    snapshot. *)
