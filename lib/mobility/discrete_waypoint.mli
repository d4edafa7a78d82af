(** The paper's §4.1 construction, literally: the random waypoint
    discretised into an explicit finite node-MEG.

    "The generic state of the Markov chain M must encode the
    destination point, the current point in the straight point-path the
    node lies, and the node speed."

    Here the mobility space is an m×m grid of points; a state is a pair
    (current point, destination point); speed is one grid hop per step
    (the paper allows any constant; footnote 3 says resolution does not
    affect the bounds). Motion: while current ≠ destination, the node
    makes the deterministic king-move (one step in x and/or y) toward
    the destination — the discrete straight line; on arrival it picks a
    fresh uniform destination.

    Because the state space is finite (m⁴ states) everything the
    theory needs is computed *exactly*: the stationary distribution,
    the positional density, q(x), P_NM, P_NM2 and η — this is the
    model on which Theorem 3's premises can be verified with no
    sampling error at all, and its exact positional distribution
    cross-validates the continuous Palm density. Practical for
    m ≤ ~10 (10⁴ states). *)

type t

val build : m:int -> r:float -> t
(** [build ~m ~r] constructs the chain and connection structure for an
    m×m grid with transmission radius [r] (Euclidean, in grid units).
    Requires [2 <= m <= 10] and [r] a non-negative number (NaN is
    rejected): the state count is m⁴ and the exact computations are
    quadratic in it. It also builds the {!Node_meg.Model.space} that
    {!dynamic}, {!p_nm}, {!eta} and the positional distribution read:
    an m⁸-byte connection table (1.7 MB at m = 6, 100 MB at m = 10)
    and π, computed once here, never per model. *)

val m : t -> int
val n_states : t -> int

val chain : t -> Markov.Chain.t
(** The hidden node chain M. *)

val connect : t -> int -> int -> bool
(** The connection map C over states: within distance [r]. *)

val state_position : t -> int -> int * int
(** Grid coordinates of the current point of a state. *)

val stationary_position_distribution : t -> float array
(** Exact stationary probability of occupying each grid point
    (length m²; row-major (x * m + y)). *)

val p_nm : t -> float
(** Exact P_NM (via {!Node_meg.Model.p_nm}). *)

val eta : t -> float
(** Exact η = P_NM2 / P_NM². *)

val corollary4_eta_bound : t -> float
(** The η Corollary 4 would infer from the exact positional
    distribution's uniformity constants: δ⁶/λ², computed with δ and λ
    extracted exactly from {!stationary_position_distribution}. The
    comparison of this with {!eta} measures how much Corollary 4's
    route loses over the direct Theorem 3 computation. *)

val dynamic : ?init:Node_meg.Model.init -> n:int -> t -> Core.Dynamic.t
(** The resulting dynamic graph on [n] nodes. Cheap: it allocates
    O(n + m⁴) scratch and shares the space built by {!build}. *)
