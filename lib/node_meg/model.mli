(** Node-Markovian evolving graphs NM(n, M, C) (paper, Section 4).

    Every node runs an independent copy of a finite Markov chain [M];
    a symmetric connection map [C] over chain states decides, at every
    step, which pairs of nodes are joined by an edge.

    Because nodes are exchangeable (Fact 2), the quantities P_NM (two
    fixed nodes connected) and P_NM2 (two fixed nodes both connected to
    a third) are functions of the stationary distribution π and [C]
    alone; they are computed exactly here and feed Theorem 3. *)

type init =
  | Stationary            (** states i.i.d. from π *)
  | All_in of int         (** every node starts in the given state *)
  | Uniform_states        (** states i.i.d. uniform over S *)

type space
(** The chain-only part of NM(n, M, C), precomputed: [M] itself, [C]
    tabulated over state pairs (one byte per pair, |S|² bytes), the
    count of connected state pairs, π and π's alias sampler. Building
    it costs |S|² evaluations of [C] (each pair in both orders, for the
    symmetry check) plus one power-iteration solve for π, paid once;
    every model and every exact quantity below then reads it. A space
    is immutable once built, so one space may back any number of
    models, including models running concurrently on different
    domains. *)

val space : chain:Markov.Chain.t -> connect:(int -> int -> bool) -> space
(** [space ~chain ~connect] precomputes the space of [chain] under the
    connection map [connect]. Raises [Invalid_argument] if [connect] is
    not symmetric. *)

val chain : space -> Markov.Chain.t
(** The node chain M. *)

val stationary : space -> float array
(** π (a fresh copy). *)

val make : ?init:init -> n:int -> space -> Core.Dynamic.t
(** The process on [n] nodes. Edge enumeration is output-sensitive:
    nodes are bucketed by state and only state pairs with C = 1 produce
    work. Each model owns O(n + |S|) scratch; the space is shared.
    Raises [Invalid_argument] if [init] is [All_in x] with [x] outside
    the state range. *)

val make_observable : ?init:init -> n:int -> space -> Core.Dynamic.t * (unit -> int array)
(** Like {!make} but also returns an observer of the current per-node
    chain states (a copy, safe to keep). *)

val q_of_state : space -> float array
(** [q_of_state sp] gives q(x) = π(Γ(x)): the stationary probability
    that a fixed node is connected to another fixed node known to be in
    state [x]. *)

val p_nm : space -> float
(** P_NM = Σ_x π(x) q(x): stationary probability that two fixed nodes
    are connected. *)

val p_nm2 : space -> float
(** P_NM2 = Σ_x π(x) q(x)²: stationary probability that two fixed nodes
    are both connected to a third fixed node. *)

val eta : space -> float
(** The η of Theorem 3: P_NM2 / P_NM². *)

val theorem3_bound : space -> n:int -> ?t_mix:float -> unit -> float
(** Theorem 3's expression with exact P_NM and η. [t_mix] defaults to
    the chain's exact mixing time (1 if it mixes instantly or the exact
    computation does not converge). *)
