(** The experiment registry: every claim-reproduction experiment of
    DESIGN.md, addressable by id, runnable from the CLI and from the
    benchmark harness, each with machine-checkable assessments.

    The whole experiment is the one unit of work. Every entry point —
    {!run_each} (hence [run_all], [verify] and the benchmark), {!run_one}
    and {!single_outcome} — runs one {!Exec.plan_spec} plan with one job
    per experiment, on any {!Exec.scheduler}: in-process under
    {!Exec.sequential} or {!Exec.pool}, one worker process per job under
    {!Exec.procs}. The rendered bytes are identical for every scheduler,
    because every trial's randomness is a substream indexed by its
    position, never by schedule (see {!Exec}). *)

type experiment = {
  id : string;           (** "E1" .. "E18" *)
  title : string;
  claim : string;
  run :
    sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list;
  assess : Stats.Table.t list -> Assess.check list;
      (** shape checks over the tables produced by [run] *)
}

val all : experiment list
(** In id order. *)

val find : string -> experiment option
(** Case-insensitive lookup by id. *)

type render =
  | Full       (** header, claim, tables, scorecard *)
  | Scorecard  (** scorecard only (the [verify] view) *)

(** {2 Fleet payloads}

    Every {!Exec.procs} job the registry hands out carries one payload:
    the experiment id, the state bits ({!Prng.Rng.state_bits}) of the
    generator the parent would have run it with — never a seed, so any
    generator can cross the process boundary — the scale and the render
    mode. Its spec id is the experiment id. The worker side is
    {!dispatch}. Codec exposed for the round-trip tests. *)

type payload = { id : string; bits : int64 * int64; scale : Runner.scale; render : render }

val encode_payload : payload -> string
(** Tag ['X'], then the fields in order. *)

val decode_payload : string -> payload
(** Inverse of {!encode_payload}; raises [Exec.Spec.Buf.Corrupt] on
    truncated input, trailing bytes, an unknown tag, scale or render. *)

val dispatch : id:string -> payload:string -> string
(** Execute one fleet job (worker side) and encode its outcome; the
    [dispatch] of {!Exec.Worker.serve}. [id] must be the spec id the
    parent generated for the payload. The experiment renders on
    [Exec.of_int (Exec.Pool.workers ())] — the worker's own [--jobs] —
    with the same counting, trace bracketing and attribution scope as
    an in-process job, so it returns exactly the bytes, counters and
    trace events the parent would have produced. The decoded [seconds]
    are measured on the worker's {!Obs.Clock}.

    Raises [Failure] on a spec id that does not match the payload or an
    unknown experiment. *)

val experiment_rng : Prng.Rng.t -> int -> Prng.Rng.t
(** [experiment_rng rng i] is the generator for the [i]-th registry
    entry: substream [1000 + i] of [rng]. The single seeding scheme
    behind [run_all], [verify] and CSV export — all of them produce the
    same numbers for the same seed. *)

val render_one :
  ?render:render ->
  sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  experiment ->
  string * bool
(** Run one experiment and render it to a string; returns whether all
    checks passed. The building block every printing entry point shares. *)

type outcome = {
  experiment : experiment;
  output : string;       (** rendered tables / scorecard *)
  ok : bool;             (** all assessments passed *)
  seconds : float;       (** wall-clock duration (0. without a clock) *)
  metrics : (string * int) list;
      (** counter deltas attributed to this experiment by
          {!Obs.Metrics.with_scope} — deterministic work totals like
          ["flood.rounds"], sorted by name; empty when metrics are
          disabled *)
}

val single_outcome :
  ?clock:(unit -> float) ->
  ?render:render ->
  ?sched:Exec.scheduler ->
  seed:int ->
  scale:Runner.scale ->
  experiment ->
  string * bool * float * (string * int) list
(** Run one experiment as a one-job plan with the single-experiment
    seeding scheme: the generator is [Prng.Rng.of_seed seed] directly,
    exactly as the CLI [run <id> --seed S] seeds it. The serve daemon
    executes [run] requests through this helper, which is what makes a
    service response byte-identical to the equivalent batch CLI
    invocation. Returns the {!outcome} fields
    [(output, ok, seconds, metrics)]; [seconds] is measured with
    [clock] ([0.] without one, or on the worker's clock under
    {!Exec.procs}). [render] defaults to [Full], [sched] to
    [Exec.sequential]. *)

val run_each :
  ?render:render ->
  ?sched:Exec.scheduler ->
  ?clock:(unit -> float) ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  unit ->
  outcome list
(** Run every experiment (concurrently under a pool scheduler), each
    seeded with {!experiment_rng}; results are returned in registry
    order with their rendered output and wall-clock duration in
    seconds. Durations are measured with [clock] (e.g.
    [Unix.gettimeofday]); without one they are reported as [0.] —
    the library takes no clock dependency of its own. Each experiment
    counts [sim.experiments] and, when tracing is enabled, is bracketed
    by [exp.start] / [exp.end] events carrying its id.

    Under an {!Exec.procs} scheduler each experiment is one fleet job
    whose {!payload} is derived from [rng], so the fleet renders the
    same bytes as every other scheduler for any generator. *)

val run_one :
  ?out:out_channel ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  experiment ->
  bool
(** Run one experiment as a one-job plan seeded with [rng], print
    claim, tables and scorecard to [out] (default stdout); returns
    whether all checks passed. Under a pool scheduler the experiment's
    own plans use the pool; under {!Exec.procs} it runs on one worker
    process. *)

val run_all :
  ?out:out_channel ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  unit ->
  bool
(** Run every experiment, then print an overall reproduction summary;
    returns whether every check of every experiment passed. *)

val run_all_timed :
  ?out:out_channel ->
  ?sched:Exec.scheduler ->
  ?clock:(unit -> float) ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  unit ->
  bool * outcome list
(** [run_all] plus the per-experiment outcomes (see {!run_each} for the
    [clock] contract). The printed bytes are identical to {!run_all} at
    the same seed; the extra data feeds the benchmark harness's
    machine-readable baseline ([--json]). *)

val verify :
  ?out:out_channel ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  unit ->
  int
(** Run every experiment but print only the scorecards; returns the
    number of experiments with failing checks. Shares [run_each] with
    [run_all], so its scorecards match a [run_all] at the same seed
    line for line. *)
