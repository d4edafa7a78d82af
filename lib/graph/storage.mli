(** Off-heap storage layer for the big per-run state.

    Everything whose size scales with the graph — edge-MEG strips'
    endpoint mirrors and sorted runs, adjacency rows, informed bitsets,
    arrival and frontier arrays — can live here instead of on the OCaml
    heap: int32 Bigarrays (4 bytes per element, never scanned by the
    GC) for node ids and dense positions, native-int Bigarrays for pair
    indices that exceed 32 bits, and packed Bytes bitsets (1 bit per
    node, opaque to the GC scanner) for membership flags. A 10⁶–10⁷
    node run then carries near-zero GC tax: the major heap holds only
    the fixed-size control records, independent of [n].

    Node ids are bounded by {!max_nodes} (2³¹): an id must round-trip
    through an int32 cell. Pair indices (up to n(n-1)/2 ≈ 2³⁹ at
    n = 2²⁰) do not fit and use the native-int {!Ix} arrays instead.

    Accessors are [@inline]-annotated and allocation-free: even without
    flambda the compiler cancels the int32 box/unbox pair in a
    [get]-as-argument position (verified by test/test_storage.ml). They
    inline only within a compilation unit that sees their bodies. Under
    dune's default dev profile every module is compiled with
    [-opaque], so a call from another module is a real function call.
    Hot loops should therefore hold {!I32.raw} arrays and use the
    Bigarray primitives ([Bigarray.Array1.unsafe_get]/[unsafe_set] on
    the concrete element type) in their own module, and read bitsets
    through {!Bitset.bits}. *)

val max_nodes : int
(** Exclusive upper bound on node ids representable in int32 cells
    (2³¹). *)

val offheap_nodes : int
(** Node-count threshold (2¹⁷) from which [Edge_meg.Classic.make] cuts
    the pair universe into 64 strips, each holding its live edges as a
    sorted run of pair indices, with memory O(live edges), instead of
    one strip on an array-indexed set of O(n²) memory. *)

(** Growable int32 vector on a Bigarray. *)
module I32 : sig
  type raw = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t

  val create : int -> t
  (** [create len] is a zero-filled vector of [len] cells. *)

  val length : t -> int

  val get : t -> int -> int
  (** Bounds-checked by the Bigarray layer. Values are truncated to 32
      bits on write, so only ints in [\[-2³¹, 2³¹)] round-trip. *)

  val set : t -> int -> int -> unit

  val unsafe_get : t -> int -> int

  val unsafe_set : t -> int -> int -> unit

  val fill : t -> int -> int -> int -> unit
  (** [fill t pos len v] sets [len] cells starting at [pos] to [v]. *)

  val blit : t -> int -> t -> int -> int -> unit
  (** [blit src spos dst dpos len]. *)

  val ensure : t -> int -> unit
  (** [ensure t capacity] grows the vector to at least [capacity]
      cells, doubling and preserving contents; new cells are zero.
      Never shrinks. The explicit growth contract for buffers whose
      peak size is run-dependent (e.g. the flooding trajectory). *)

  val raw : t -> raw
  (** The underlying Bigarray, for hot loops that hoist the array out
      of an accessor chain. Invalidated by {!ensure}. *)
end

(** Growable native-int vector on a Bigarray — 8 bytes per cell, for
    values (pair indices) that exceed the int32 range. *)
module Ix : sig
  type raw = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t

  val create : int -> t

  val length : t -> int

  val get : t -> int -> int

  val set : t -> int -> int -> unit

  val unsafe_get : t -> int -> int

  val unsafe_set : t -> int -> int -> unit

  val fill : t -> int -> int -> int -> unit

  val ensure : t -> int -> unit

  val raw : t -> raw
  (** As {!I32.raw}: invalidated by {!ensure}. *)
end

(** Packed bitset: one bit per element in a Bytes block. The GC never
    scans Bytes contents, and the packing keeps the informed set of a
    2²⁰-node run in 128 KiB — L2-resident. *)
module Bitset : sig
  type t

  val create : int -> t
  (** [create n] is [n] clear bits. *)

  val length : t -> int

  val get : t -> int -> bool

  val set : t -> int -> unit

  val clear : t -> int -> unit

  val unsafe_get : t -> int -> bool

  val unsafe_set : t -> int -> unit

  val unsafe_clear : t -> int -> unit

  val clear_all : t -> unit
  (** Clear every bit. O(n/8). *)

  val bits : t -> Bytes.t
  (** The underlying block, shared, for hot loops in other modules (see
      {!I32.raw}). Bit [i] is at byte [i lsr 3], mask
      [1 lsl (i land 7)]. Writes through it are writes to the set. *)
end
