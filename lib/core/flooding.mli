(** The flooding process of the paper (Section 2) and the protocol
    variants discussed in its conclusions.

    Flooding with source [s]: I_0 = {s}; a node joins I_{t+1} iff some
    edge of E_t connects it to a node of I_t. The flooding time with
    source [s] is min {t : I_t = [n]}, and the flooding time of the
    process is the maximum over sources. *)

type protocol =
  | Flood
      (** Deterministic flooding: every informed node transmits on every
          incident edge, every step. *)
  | Push of float
      (** [Push p]: each informed node transmits over each incident edge
          independently with probability [p] per step — equivalent to
          flooding on the "virtual dynamic graph" of Section 5 in which
          a random subset of edges is removed. *)
  | Parsimonious of int
      (** [Parsimonious k]: a node transmits only during the [k] steps
          after it becomes informed (the model of Baumann et al. [4]). *)

type result = {
  time : int option;
      (** Flooding time: steps until every node is informed; [None] if
          the cap was reached first. *)
  trajectory : int array;
      (** [trajectory.(t)] = |I_t|, for t = 0 .. completion (or cap). *)
  arrivals : int array;
      (** [arrivals.(v)] = the step at which node [v] became informed
          (0 for the source), or -1 if it never did. These are the
          "temporal distances" from the source: on a static graph they
          equal BFS distances. *)
}

val default_cap : int -> int
(** [default_cap n] is [10_000 + 200 * n]: the step cap of a run on [n]
    nodes when none is given, here and in {!Gossip}. *)

val run :
  ?cap:int ->
  ?protocol:protocol ->
  ?storage:[ `Heap | `Offheap ] ->
  rng:Prng.Rng.t ->
  source:int ->
  Dynamic.t ->
  result
(** Run one flooding execution. Resets the process with a split of
    [rng]; the remainder of [rng] drives the protocol's own coins (for
    [Push]). [cap] defaults to {!default_cap} [n] steps.

    [Flood] asks the model for each round's new neighbours
    ({!Dynamic.boundary}) instead of enumerating the snapshot or
    keeping an adjacency; the results are the ones enumeration gives.
    [Push] and [Parsimonious] scan an incremental adjacency on
    delta-capable models; on the others they read each round's
    snapshot through one {!Dynamic.iter_edges} call.

    [storage] is ignored. The row path's incremental adjacency has
    one layout, the off-heap arena of {!Adj_sync}; the argument stays
    only for existing callers. Requires [n <= Graph.Storage.max_nodes],
    as the kernel's scratch is int32-backed.

    Raises [Invalid_argument] on a source outside [0 .. n - 1], a
    negative [cap], a [Push] probability outside (0, 1], a
    [Parsimonious] window below 1, or a snapshot edge with an endpoint
    outside [0 .. n - 1]. *)

val time :
  ?cap:int ->
  ?protocol:protocol ->
  rng:Prng.Rng.t ->
  source:int ->
  Dynamic.t ->
  int option
(** Flooding time only — skips materialising the O(n) trajectory and
    arrival arrays, so a trial loop at large [n] allocates nothing per
    run. *)

val trial_time :
  ?cap:int ->
  ?protocol:protocol ->
  rng:Prng.Rng.t ->
  source:int ->
  Dynamic.t ->
  int
(** One flooding trial as a total function: the flooding time, or the
    cap when the run did not complete. The per-trial job that
    {!mean_time} and {!worst_source_time} distribute over a
    scheduler. *)

val mean_time :
  ?cap:int ->
  ?protocol:protocol ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  trials:int ->
  ?source:int ->
  (unit -> Dynamic.t) ->
  Stats.Summary.t
(** Flooding-time summary over [trials] independent runs, each on a
    fresh instance from the builder, seeded with [Prng.Rng.substream rng
    i] — so the summary is a deterministic function of [rng]'s state,
    identical for every scheduler ([sched] defaults to
    {!Exec.sequential}). Capped runs are recorded at the cap value, so
    means are conservative underestimates; check [max] against the cap.
    [source] defaults to node 0 (models here are node-symmetric).

    The builder must be safe to call from any domain; under a parallel
    scheduler it must return a fresh instance per call (a builder
    closing over one shared [Dynamic.t] is only safe sequentially). *)

val characteristic_time : result -> float
(** Mean arrival time over the informed nodes (the average broadcast
    latency, as opposed to [time], the worst-case one). [nan] when only
    the source was informed. *)

val worst_source_time :
  ?cap:int ->
  ?protocol:protocol ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  ?sources:int list ->
  (unit -> Dynamic.t) ->
  int
(** max over sources of one flooding run each (all nodes by default);
    capped runs count as the cap. The F(G) = max_s F(G, s) of the
    paper, estimated with one run per source. Each source's run is
    seeded by [Prng.Rng.substream rng s] on a fresh instance from the
    builder, so the result is scheduler-independent (same contract as
    {!mean_time}). Raises [Invalid_argument] on an empty [sources]
    list. *)
