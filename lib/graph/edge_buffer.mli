(** Growable, reusable edge arena: the zero-allocation counterpart of an
    [(int * int) list] snapshot.

    A buffer owns two parallel [int] arrays of sources and destinations
    plus a length; [push] appends in amortised O(1) without boxing,
    [clear] resets the length without releasing storage, so a buffer
    reused across snapshots allocates nothing once it has grown. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty buffer. [capacity] (default 16, minimum 1) is the
    initial storage; the buffer grows by doubling as needed. *)

val length : t -> int
(** Number of edges currently stored. *)

val capacity : t -> int
(** Edges storable before the next reallocation. *)

val clear : t -> unit
(** Forget the contents, keep the storage. O(1). *)

val push : t -> int -> int -> unit
(** [push b u v] appends the edge (u, v), preserving orientation. *)

val src : t -> int -> int
(** Source endpoint of the [i]-th edge (unchecked beyond array bounds). *)

val dst : t -> int -> int
(** Destination endpoint of the [i]-th edge. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter b f] calls [f u v] on each stored edge, in buffer order. *)

val sort_dedup : t -> unit
(** Normalise every edge to [src < dst], sort lexicographically and
    drop duplicates, all in place (no allocation beyond O(log n) stack).
    Self-loops are kept (as [u = v]) and sorted with the rest; reject
    them before or after if the consumer forbids them. *)

val to_list : t -> (int * int) list
(** Materialise as a list in buffer order (test/debug convenience). *)
