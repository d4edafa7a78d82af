(** The experiment registry: every claim-reproduction experiment of
    DESIGN.md, addressable by id, runnable from the CLI and from the
    benchmark harness, each with machine-checkable assessments.

    All entry points take an {!Exec.scheduler}. [run_all], [verify] and
    {!Export.export_all} distribute whole experiments over the pool
    (each with per-experiment output buffered and emitted in registry
    order), while a single experiment parallelises its own trial plans —
    either way the rendered bytes are identical for every worker count,
    because every trial's randomness is a substream indexed by its
    position, never by schedule (see {!Exec}). *)

type experiment = {
  id : string;           (** "E1" .. "E18" *)
  title : string;
  claim : string;
  run :
    sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list;
  plan : (rng:Prng.Rng.t -> scale:Runner.scale -> Trial_plan.t) option;
      (** the experiment's trial bags as data, when it has been
          converted ({!wrap_planned}); [run] is then derived from the
          plan and a single experiment can shard across an
          {!Exec.procs} fleet instead of degrading to the domain pool *)
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

    Every {!Exec.procs} job the registry hands out carries one of two
    payloads, both rebuilt from the generator the parent was given —
    never from a seed — so any generator can cross the process
    boundary. Both carry the experiment id, the generator's
    {!Prng.Rng.state_bits} and the scale:

    - a whole experiment (tag ['X'], spec id ["<id>"]) adds its render
      mode; {!run_each} derives one per experiment from its [rng];
    - a trial shard (tag ['T'], spec id ["<id>.t<shard>"]) adds its
      index into {!Trial_plan.shards}; a planned experiment captures
      the bits before it builds its plan.

    The worker side is {!dispatch}. Codec exposed for the round-trip
    tests. *)

type payload =
  | Experiment of { id : string; bits : int64 * int64; scale : Runner.scale; render : render }
  | Trial of { id : string; bits : int64 * int64; scale : Runner.scale; shard : int }

val encode_payload : payload -> string

val decode_payload : string -> payload
(** Inverse of {!encode_payload}; raises [Exec.Spec.Buf.Corrupt] on
    truncated input, trailing bytes, an unknown tag, scale or render. *)

val dispatch : id:string -> payload:string -> string
(** Execute one fleet job (worker side) and encode its result; the
    [dispatch] of {!Exec.Worker.serve}. [id] must be the spec id the
    parent generated for the payload.

    - A whole experiment runs {!rendered_outcome} on
      [Exec.of_int (Exec.Pool.workers ())] — the worker's own [--jobs] —
      so it returns exactly the bytes the parent would have rendered
      in-process. The decoded [seconds] are measured on the worker's
      {!Obs.Clock}.
    - A trial shard rebuilds the experiment's plan (construction-time
      metrics suppressed: the parent already charged them once), runs
      the shard, and encodes its result with
      {!Trial_plan.encode_result}.

    Raises [Failure] on a spec id that does not match the payload, an
    unknown experiment, an unplanned experiment named by a shard, or a
    shard out of range. *)

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

val rendered_outcome :
  ?clock:(unit -> float) ->
  render:render ->
  sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  experiment ->
  string * bool * float * (string * int) list
(** The complete per-experiment job body shared by {!run_each} and by
    fleet workers ({!dispatch}): counts [sim.experiments], brackets the run
    with [exp.start] / [exp.end] trace events, renders under a
    {!Obs.Metrics.with_scope} attribution scope, and measures duration
    with [clock] (reported as [0.] without one). Returns
    [(output, ok, seconds, metrics)]. Running it worker-side is what
    keeps counters and trace output identical across process
    boundaries. *)

val single_outcome :
  ?clock:(unit -> float) ->
  ?render:render ->
  ?sched:Exec.scheduler ->
  seed:int ->
  scale:Runner.scale ->
  experiment ->
  string * bool * float * (string * int) list
(** {!rendered_outcome} with the single-experiment seeding scheme:
    the generator is [Prng.Rng.of_seed seed] directly, exactly as the
    CLI [run <id> --seed S] seeds it. The serve daemon executes [run]
    requests through this helper, which is what makes a service
    response byte-identical to the equivalent batch CLI invocation.
    [render] defaults to [Full], [sched] to [Exec.sequential]. *)

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
    the library takes no clock dependency of its own. When tracing is
    enabled, each experiment is bracketed by [exp.start] / [exp.end]
    events carrying its id.

    Under an {!Exec.procs} scheduler each experiment is one fleet job
    whose ['X'] payload (see {!payload}) is derived from [rng], so the
    fleet renders the same bytes as every other scheduler for any
    generator. *)

val run_one :
  ?out:out_channel ->
  ?sched:Exec.scheduler ->
  rng:Prng.Rng.t ->
  scale:Runner.scale ->
  experiment ->
  bool
(** Run one experiment, print claim, tables and scorecard to [out]
    (default stdout); returns whether all checks passed. *)

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
