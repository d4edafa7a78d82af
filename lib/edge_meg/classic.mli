(** The classic edge-Markovian evolving graph of [10] (paper, Appendix
    A): every potential edge runs an independent two-state chain — an
    absent edge is born with probability [p] per step, a present edge
    dies with probability [q].

    The implementation is sparse: the current edge set lives in a
    sparse set over pair indices, births are sampled with
    geometric jumps over the n(n-1)/2 pair indices (membership check
    per hit is O(1)) and deaths with geometric skips over the dense
    present array, so a step costs O(n² p + m q) expected draws instead
    of O(n²) — or of m Bernoullis. This is what makes the E1 sweep
    (n up to a few thousand with p = Θ(1/n)) cheap. *)

type init =
  | Stationary  (** each edge present with probability p/(p+q) *)
  | Empty       (** E_0 = ∅ — worst start for the density condition *)
  | Full        (** E_0 = complete graph *)

val make :
  ?init:init ->
  ?parts:int ->
  n:int ->
  p:float ->
  q:float ->
  unit ->
  Core.Dynamic.t
(** Requires [p, q] in [\[0, 1\]], [p + q > 0]. Default init
    [Stationary].

    One engine backs the model (DESIGN.md section 11). It cuts the pair
    universe into fixed strips, each owning its present set, endpoint
    mirror and generator; enumeration and delta reports concatenate
    the strips in index order. The strip count follows [n]:

    - Below [Graph.Storage.offheap_nodes] (2¹⁷) nodes, and without
      [?parts], one strip spans the universe and draws from the reset
      generator itself. Its set is a {!Graph.Sparse_set} indexed by
      pair, two arrays of n(n-1)/2 cells: about 537 MB at n = 2¹³,
      growing as n². Callers between 2¹³ and 2¹⁷ nodes should pass
      [?parts].
    - From 2¹⁷ nodes up, or with [?parts], 64 strips each draw from
      substream [strip index] of the reset seed and keep every
      size-scaling structure in the {!Graph.Storage} layer. A strip's
      set is a sorted run of its live pair indices, merged once per
      step, so memory is O(peak edge count) in three vectors per
      strip (endpoint mirror, run and merge target) plus buffers for
      one step's births and deaths: the only way to reach n ≈ 10⁶.
      [make] allocates nothing that grows with the edge count. They step in
      parallel on {!Exec.Pool}, grouped into [parts] tasks (64 without
      [?parts]). Results depend only on the seed, not on [parts] or the
      worker count. The two strip counts draw different streams and
      agree in law.

    The model carries a native {!Core.Dynamic.boundary} hook, so plain
    flooding runs on it with no adjacency and no delta reports. The
    hook walks every strip's endpoint mirror, in enumeration order, and
    reports each outside endpoint of an edge with exactly one endpoint
    inside, once per call; it returns the number of live edges scanned
    and raises [Invalid_argument] when the inside set's length is not
    [n]. It reads the mirrors directly rather than through a closure
    call per edge, which is what it saves over the hook
    {!Core.Dynamic.make} would derive from [iter_edges].

    Raises [Invalid_argument] when [parts] lies outside 1..64, and for
    a [Full] or saturated stationary (q = 0) start at 64 strips, which
    would put the whole universe into the strips' runs. *)

val params : p:float -> q:float -> Markov.Two_state.t
(** The per-edge chain, for closed-form α and mixing time. *)

val expected_stationary_edges : n:int -> p:float -> q:float -> float
(** α · n(n-1)/2. *)
