(** Keep a {!Graph.Mutable_adj} in sync with a {!Dynamic} process —
    incrementally through the model's delta stream when it cooperates,
    by full re-enumeration when it does not.

    The one loop shape all delta-driven kernels share:
    {[
      let sync = Adj_sync.create g in          (* after Dynamic.reset *)
      while running do
        Adj_sync.ensure sync;                  (* rebuild iff out of sync *)
        ... scan (Adj_sync.adj sync) ...
        Dynamic.step g;
        Adj_sync.advance sync                  (* apply deltas or mark stale *)
      done
    ]}

    [advance] must run immediately after [Dynamic.step] (deltas are
    only valid there) and the structure must be this consumer's only
    delta reader — a step's report can be consumed once. *)

type t

val create : Dynamic.t -> t
(** A fresh, unsynced view of the process (no snapshot is read until
    the first {!ensure}), over an off-heap {!Graph.Mutable_adj} arena
    at every n. Call after [Dynamic.reset]; to reuse a view across
    resets of the same process (keeping its grown row storage warm),
    call {!invalidate} at the start of each run instead of allocating
    a new one. *)

val invalidate : t -> unit
(** Mark the view stale so the next {!ensure} rebuilds. Required when
    reusing one view across [Dynamic.reset]s: the old adjacency is
    garbage for the new trajectory, but the row capacities it grew are
    worth keeping. *)

val adj : t -> Graph.Mutable_adj.t
(** The maintained adjacency. Only valid after {!ensure} in the current
    round. Callers must not mutate it. *)

val synced : t -> bool
(** Whether the adjacency currently mirrors the model's snapshot
    (false initially and after a declined {!advance}). *)

val ensure : t -> unit
(** Bring the adjacency up to date: no-op when {!synced}, otherwise a
    full rebuild from [Dynamic.iter_edges] — O(n + m). *)

val advance : t -> unit
(** Consume the step's delta report into the adjacency (O(Δ)). If the
    model declines — or was never delta-capable — the view is marked
    stale and the next {!ensure} rebuilds. When the model's
    {!Dynamic.delta_size} hint says the report is large enough that a
    rebuild is cheaper than applying it (roughly Δ ≳ (2m + n)/5), the
    report is skipped unconsumed and the view marked stale instead —
    the crossover where four row operations per event overtake a
    linear rebuild. Call exactly once, right after [Dynamic.step];
    skip it only if the next round starts with a rebuild anyway. *)

val refreshes : t -> int
(** Number of full rebuilds so far ({!ensure} calls that did work). *)

val delta_ops : t -> int
(** Cumulative births + deaths applied incrementally — the kernels'
    per-round Δ, observable for work counters. *)
