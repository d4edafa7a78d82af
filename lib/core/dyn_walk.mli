(** Random walks *on* dynamic graphs — the exploration problem of Avin,
    Koucký and Lotker [2], the paper that introduced MEGs. A token at
    node u moves, at time t, to a uniformly random neighbour of u in
    the snapshot E_t (staying put when isolated); with probability
    [hold] it stays regardless ([2] shows laziness is essential: the
    non-lazy walk can take exponential time on adversarial dynamic
    graphs).

    Complements {!Flooding}: flooding measures how fast information
    *spreads everywhere*; hitting and cover times measure how fast a
    single token *finds* nodes. *)

val hitting_time :
  ?cap:int -> ?hold:float -> rng:Prng.Rng.t -> start:int -> target:int ->
  Dynamic.t -> int option
(** Steps for a walk from [start] to first occupy [target]; [None] if
    [cap] (default [10_000 + 500 n]) is exceeded. [hold] defaults to
    1/2. A negative [cap] raises [Invalid_argument], here and in every
    function below. *)

val cover_time :
  ?cap:int -> ?hold:float -> rng:Prng.Rng.t -> start:int -> Dynamic.t -> int option
(** Steps for the walk to visit every node at least once. *)

val mean_hitting_time :
  ?cap:int ->
  ?hold:float ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  trials:int ->
  (unit -> Dynamic.t) ->
  float
(** Average over [trials] runs with uniformly random (start, target)
    pairs; capped runs count as the cap. Trial [i] runs on a fresh
    instance from the builder, seeded with [Prng.Rng.substream rng i],
    so the mean is identical for every scheduler (see
    {!Flooding.mean_time} for the contract). *)

val mean_cover_time :
  ?cap:int ->
  ?hold:float ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  trials:int ->
  (unit -> Dynamic.t) ->
  float
(** Average cover time from uniformly random starts; same trial scheme
    as {!mean_hitting_time}. *)
