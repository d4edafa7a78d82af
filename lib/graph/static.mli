(** Immutable undirected graphs in compressed sparse row (CSR) form.

    Vertices are [0 .. n-1]. Parallel edges are collapsed and self-loops
    rejected at construction. Neighbour lists are sorted, so membership
    queries are O(log deg). *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph on [n] vertices. Edges may be
    given in either orientation and with duplicates. Raises on self-loops
    or out-of-range endpoints. *)

val of_edge_array : n:int -> (int * int) array -> t
(** Array variant of {!of_edges}. Sorting and deduplication happen in
    place on an int-array edge buffer; no intermediate lists are
    built. *)

val of_buffer : n:int -> Edge_buffer.t -> t
(** Build the CSR form straight from an {!Edge_buffer}, with no
    intermediate lists or tuple arrays. Same contract as {!of_edges}
    (either orientation, duplicates collapsed, self-loops rejected).
    The buffer is sorted and deduplicated {e in place} as a side
    effect; its storage is not retained by the graph. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency. O(log deg). *)

val neighbors : t -> int -> int array
(** Sorted neighbour array of a vertex. The returned array must not be
    mutated (it aliases internal storage). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each undirected edge once, with [u < v]. *)

val edges : t -> (int * int) list
(** All edges with [u < v], in lexicographic order. *)

val max_degree : t -> int
val min_degree : t -> int

val degree_regularity : t -> float
(** [max_degree / min_degree] as a float; the δ of Corollary 6 when the
    graph is used as a mobility space. [infinity] if some vertex is
    isolated, [nan] on the empty graph. *)

val is_symmetric : t -> bool
(** Internal consistency check: every arc has its reverse. Always true
    for graphs built by this module; exposed for property tests. *)
