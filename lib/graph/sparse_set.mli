(** Fixed-universe sparse set: a dense [int array] of members plus a
    position index, the classic trick giving O(1) [add] / [remove] /
    [mem] with no hashing, no boxing and no per-operation allocation.

    Members are ints in [\[0, universe)]. The dense array is kept
    compact by swap-remove, so iteration is a linear walk over exactly
    [length] slots; the iteration order is the insertion order as
    perturbed by past swap-removes — deterministic for a deterministic
    operation sequence, but not sorted.

    This is the state representation behind [Edge_meg.General] and
    one-strip [Edge_meg.Classic] models (below 2¹⁷ nodes, without
    [?parts]): the pair index of every present edge lives
    in the set, membership checks during the birth scan are two array
    reads, and the death scan subsamples the dense array with geometric
    skips ({!remove_geo_pos}) so a step draws O(m·q) variates instead
    of m Bernoullis. Its two arrays span the universe, n(n-1)/2 cells
    each; the 64-strip classic engine keeps a sorted run of live pair
    indices instead, and walks its dense order with the same draws. *)

type t

val create : int -> t
(** [create universe] is the empty set over [\[0, universe)].
    Allocates two [universe]-sized int arrays once; nothing afterwards. *)

val universe : t -> int

val length : t -> int

val mem : t -> int -> bool
(** O(1). The element must lie in [\[0, universe)]. *)

val add : t -> int -> unit
(** O(1); no-op if already present. *)

val add_unchecked : t -> int -> unit
(** [add] without the membership pre-check. The caller must guarantee
    [not (mem t x)] — inserting a present element corrupts the set.
    For bulk insertion paths that have just tested membership anyway
    (e.g. a birth scan over reported-absent elements). *)

val remove : t -> int -> unit
(** O(1) swap-remove (the last dense element takes the removed one's
    slot); no-op if absent. *)

val clear : t -> unit
(** O(1) — just forgets the length; stale index entries are disarmed by
    the [mem] validity check. *)

val fill_all : t -> unit
(** Make the set the whole universe, as one linear identity fill of the
    two arrays — the bulk path for [Full] / saturated-stationary
    initialisation, replacing a hash insert per element. *)

val get : t -> int -> int
(** [get t i] is the [i]-th element in dense order, [0 <= i < length]. *)

val find : t -> int -> int
(** [find t x] is the dense position of member [x] (so
    [get t (find t x) = x]); raises [Invalid_argument] if [x] is not a
    member. Lets callers that mirror per-member payload in a parallel
    array locate the slot a swap-remove will touch. *)

val iter : t -> (int -> unit) -> unit
(** Linear walk of the dense array in its current order. [f] must not
    mutate the set. *)

val remove_geo_pos : t -> Prng.Rng.Geo.sampler -> Prng.Rng.t -> (int -> int -> unit) -> unit
(** [remove_geo_pos t geo rng f] removes each element independently
    with the probability [geo] was built for, in O(length·p) expected
    draws from the tabulated {!Prng.Rng.Geo} sampler. The walk runs
    over the dense array from the top down, skipping geometrically, so
    that swap-remove only moves already-decided survivors into visited
    slots. [f x i] receives each removed element [x] together with the
    dense slot [i] it was removed from, after the swap-remove has
    compacted the set. A caller mirroring per-member payload in a
    parallel array reads its slot [i] (the dying member's payload,
    untouched on the payload side) and then copies slot [length t] —
    the survivor just swapped into [i] — over it; when [i = length t]
    the copy is a harmless self-copy. *)
