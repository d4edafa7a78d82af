(** The classic edge-Markovian evolving graph of [10] (paper, Appendix
    A): every potential edge runs an independent two-state chain — an
    absent edge is born with probability [p] per step, a present edge
    dies with probability [q].

    The implementation is sparse: the current edge set lives in a
    {!Graph.Sparse_set} over pair indices, births are sampled with
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

    Two engines back the model. The heap engine keeps a
    {!Graph.Sparse_set} indexed by the full pair universe — O(n²)
    memory, the only engine that holds [Full] (and saturated
    stationary) initialisation. The partitioned engine (DESIGN.md
    section 11) keeps every size-scaling structure in the
    {!Graph.Storage} layer with memory O(peak edge count) — the only
    way to reach n ≈ 10⁶ — and cuts the pair universe into 64 fixed
    strips, each owning its state and an RNG substream indexed by strip
    (never by domain), stepped in parallel on {!Exec.Pool}. Its results
    depend only on the seed, not on [parts] or the worker count; its
    draw stream deliberately differs from the heap engine's, and the two
    agree in law.

    Without [?parts], [make] picks the partitioned engine from
    [Graph.Storage.offheap_nodes] nodes up whenever the initialisation
    allows it, the heap engine otherwise. [?parts] forces the
    partitioned engine at any [n], grouping strips into that many step
    tasks (clamped to 1..64); it rejects [Full] and saturated
    stationary starts. *)

val params : p:float -> q:float -> Markov.Two_state.t
(** The per-edge chain, for closed-form α and mixing time. *)

val expected_stationary_edges : n:int -> p:float -> q:float -> float
(** α · n(n-1)/2. *)
