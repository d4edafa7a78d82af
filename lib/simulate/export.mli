(** Batch CSV export: run experiments and write every table as a CSV
    file, for offline plotting. File names are derived from the
    experiment id and the table's position and title
    (e.g. [E6-2-e6a-scaling-check.csv]). *)

val slug : string -> string
(** Lowercase, non-alphanumerics collapsed to single dashes, trimmed;
    at most 48 characters. *)

val export_experiment :
  ?sched:Exec.scheduler ->
  dir:string ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  Registry.experiment ->
  string list
(** Run one experiment and write its tables under [dir] (created if
    missing). Returns the paths written. *)

val export_all :
  ?sched:Exec.scheduler ->
  dir:string ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  unit ->
  string list
(** Export every registered experiment, concurrently under a pool
    scheduler (each experiment writes its own disjoint files; the
    returned path list is always in registry order). Per-experiment
    substreams come from {!Registry.experiment_rng}, matching
    {!Registry.run_all}'s seeding, so exported numbers equal the
    printed ones for the same seed and any worker count. Its jobs write
    files and carry no job spec, so an {!Exec.procs} scheduler raises
    [Invalid_argument] (see {!Exec.run}). *)
