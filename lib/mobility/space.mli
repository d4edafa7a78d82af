(** Geometry of the mobility region: an L×L square with a uniform-cell
    spatial index for enumerating all node pairs within the
    transmission radius in expected O(n + #pairs) time, and for finding
    the boundary of a node set without enumerating any pairs. *)

val clamp : float -> float -> float
(** [clamp l x] clips [x] into [\[0, l\]]. *)

val dist2 : float -> float -> float -> float -> float
(** Squared Euclidean distance between (x1, y1) and (x2, y2). *)

type scratch
(** Reusable storage for the counting-sort grid (CSR key offsets plus
    a point ordering), shared by both sweeps. One sweep per step with
    a persistent scratch allocates nothing in steady state. A scratch
    must not be shared across domains. *)

val scratch : unit -> scratch
(** A fresh, empty scratch; grown on demand by the sweeps. *)

val iter_close_pairs :
  ?scratch:scratch ->
  l:float ->
  r:float ->
  xs:float array ->
  ys:float array ->
  (int -> int -> unit) ->
  unit
(** Call [f i j] (with [i < j]) for every pair of points at Euclidean
    distance at most [r]. Positions must lie in [\[0, l\]²]. Correct for
    any [r >= 0] (cells are at least [r] wide, neighbours ±1 cell are
    scanned, and the exact distance test filters candidates); a NaN or
    negative [r] raises [Invalid_argument]. The grid is a counting-sort
    CSR index: cells are scanned in row-major order, within-cell pairs
    in ascending id order, then the four half-neighbourhood cells — a
    deterministic enumeration order pinned by the golden tests. Without
    [?scratch] a temporary one is allocated per call. *)

val iter_boundary :
  ?scratch:scratch ->
  l:float ->
  r:float ->
  xs:float array ->
  ys:float array ->
  inside:Graph.Storage.Bitset.t ->
  (int -> unit) ->
  int
(** [iter_boundary ~l ~r ~xs ~ys ~inside f] calls [f v] exactly once
    for every point [v] outside [inside] that lies within distance [r]
    of some point inside it, and returns the number of candidate pairs
    it tested. It is the set that {!iter_close_pairs} would reveal as
    the inside set's new neighbours, found without enumerating pairs:
    on the same grid, the counting sort is keyed by (cell, inside?),
    cells whose 3×3 block holds no inside point are skipped, and each
    remaining outside point stops at its first inside point within
    [r]. Points are
    reported in row-major cell order, ascending id within a cell.
    Draws no randomness. Same input contract as {!iter_close_pairs};
    [inside] must have one bit per point. *)

val cell_index : l:float -> bins:int -> float -> float -> int
(** Index of the [bins]×[bins] coarse cell containing a point; used for
    occupancy histograms. Row-major, in [\[0, bins²)]. *)
