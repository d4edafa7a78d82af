(** The generalised edge-MEG of the paper's Appendix A: every potential
    edge evolves according to an arbitrary (hidden) finite Markov chain
    [M], and a map [chi : state -> bool] decides whether the edge is
    present. Edges are independent, so the β-independence condition
    holds with β = 1 and Theorem 1 applies with
    α = Σ_{s : chi(s)} π(s).

    The per-edge chain state is stored densely (one int per pair), so a
    step costs O(n²); intended for moderate n (≤ ~1000). The chi-on
    pairs are additionally mirrored in a {!Graph.Sparse_set}, so
    snapshot enumeration costs O(m), not O(n²). *)

val make :
  ?init:[ `Stationary | `State of int ] ->
  n:int ->
  chain:Markov.Chain.t ->
  chi:(int -> bool) ->
  unit ->
  Core.Dynamic.t
(** [make ~n ~chain ~chi ()] builds the process. [`Stationary] (default)
    draws each edge's initial state from the chain's stationary
    distribution; [`State s] starts every edge in state [s].

    The process lives on the OCaml heap at every [n]: the O(n²)
    per-step chain sweep bounds its reach long before heap memory
    does. *)

val stationary_alpha : chain:Markov.Chain.t -> chi:(int -> bool) -> float
(** Probability that an edge exists in the stationary regime — the α
    fed to Theorem 1. *)

val bound : chain:Markov.Chain.t -> chi:(int -> bool) -> n:int -> float
(** The Appendix-A instantiation of Theorem 1:
    T_mix · (1/(nα) + 1)² · log² n, with T_mix computed exactly from
    the chain. Uses T_mix = 1 when the chain mixes instantly. *)
