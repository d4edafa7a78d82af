(** Shared machinery for experiments: deterministic seeding, trial
    counts by scale, and flooding-measurement helpers used by most
    tables. *)

type scale =
  | Quick  (** CI-sized: small sweeps, few trials; finishes in seconds *)
  | Full   (** paper-sized: the sweeps recorded in EXPERIMENTS.md *)
  | Large
      (** Quick-sized registry sweeps plus the million-node off-heap
          tiers the bench driver layers on top (see bench/main.ml) —
          the tier's time budget belongs to the large extras, not to
          bigger paper sweeps. *)

val trials : scale -> int
(** Default number of flooding trials per configuration (5 / 20 / 5). *)

val pick : scale -> 'a -> 'a -> 'a
(** [pick scale quick full]; [Large] picks [quick] — its extra work is
    the bench driver's large tier, not bigger sweeps. *)

type flood_stats = {
  mean : float;
  stddev : float;
  max : float;
  capped : bool;  (** some trial hit the step cap — mean is a floor *)
}

val flood :
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  trials:int ->
  ?cap:int ->
  ?protocol:Core.Flooding.protocol ->
  ?source:int ->
  (unit -> Core.Dynamic.t) ->
  flood_stats
(** Flooding-time statistics over independent trials. Each trial runs
    on a fresh instance from the builder; under a parallel [sched]
    (default {!Exec.sequential}) trials are distributed over the worker
    pool without changing any statistic — see {!Core.Flooding.mean_time}
    for the determinism contract. *)

val scale_to_int : scale -> int
(** Wire codec for a scale (0/1/2), used by the registry's
    fleet payload. *)

val scale_of_int : int -> scale
(** Inverse of {!scale_to_int}; raises [Invalid_argument] otherwise. *)

val cell : float -> Stats.Table.cell
(** Shorthand for a 4-significant-digit float cell. *)

val ratio_cell : float -> float -> Stats.Table.cell
(** [ratio_cell measured bound] renders measured/bound with 3 decimals,
    or "-" when the bound is not finite/positive. *)
