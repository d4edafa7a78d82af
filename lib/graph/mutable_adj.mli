(** Incremental adjacency: per-node dense neighbor rows maintained
    under edge insertions and removals, the mutable counterpart of a
    CSR snapshot.

    This is the structure the delta-driven spreading kernels scan: a
    dynamic-graph model reports births and deaths after each step
    ({!Core.Dynamic} delta hook) and the kernel applies them here in
    O(Δ), then reads only the neighborhoods it needs — instead of
    re-enumerating the full snapshot every round.

    Rows are {e multisets}: [add] appends unconditionally and [remove]
    deletes one copy, so models that double-report an edge (e.g.
    [Dynamic.union] when both operands carry it) stay consistent — each
    operand's birth/death stream adds/removes its own copy. Removal is
    a swap-remove after a linear scan of the two endpoint rows, not an
    O(1) position index: per-copy positions differ between the two rows
    and under multiplicity, and the expected degree is small in every
    hot model, so the index's bookkeeping would cost more than the scan
    (DESIGN.md section 8 quantifies this).

    Insertion appends, removal swaps the last entry into the hole:
    neighbor order is deterministic for a deterministic operation
    sequence but otherwise unspecified.

    Every row lives in one int32 Bigarray bump arena ({!Storage.I32})
    with per-node offset, capacity and degree vectors, so a
    million-node adjacency is four flat off-heap blocks that the GC
    never scans, instead of a million heap arrays. *)

type t

val create : n:int -> t
(** Empty adjacency over nodes [0 .. n-1]. Rows grow by doubling on
    demand; a cleared structure reuses their storage. Requires
    [n <= Storage.max_nodes] (ids must fit int32 cells). *)

val n : t -> int
(** Number of nodes. *)

val degree : t -> int -> int
(** Number of row entries of a node (counts multiplicity). O(1). *)

val entries : t -> int
(** Total row entries, i.e. the sum of all degrees. *)

val edge_count : t -> int
(** Number of edges counted with multiplicity ([entries t / 2]). *)

val clear : t -> unit
(** Forget all edges, keep row storage. O(n). *)

val add : t -> int -> int -> unit
(** Append edge (u, v) to both endpoint rows. Amortised O(1). Raises
    on self-loops or out-of-range endpoints. *)

val remove : t -> int -> int -> unit
(** Remove one copy of edge (u, v) from both endpoint rows.
    O(deg u + deg v). Raises [Invalid_argument] if absent — a delta
    stream inconsistent with the maintained state is a bug worth
    failing loudly on. *)

type view = { v_deg : Storage.I32.raw; v_off : Storage.I32.raw; v_data : Storage.I32.raw }
(** Borrowed raw windows into the arena: node [u]'s neighbors are
    [v_data.{v_off.{u} .. v_off.{u} + v_deg.{u} - 1}]. The read path
    for hot kernels, which should index it with
    [Bigarray.Array1.unsafe_get] in their own module (see
    {!Storage}). Valid until the next mutation (a row append may
    relocate the arena); callers must not write it. *)

val view : t -> view

val unsafe_nth : t -> int -> int -> int
(** [unsafe_nth t u i] is the [i]-th row entry of [u], unchecked. *)

val neighbor : t -> int -> int -> int
(** [neighbor t u i] is the [i]-th row entry of [u],
    [0 <= i < degree t u] (checked). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Visit every edge once per copy, as [f u v] with [u < v], in
    ascending order of [u] (order within a row unspecified). O(n +
    entries). *)
