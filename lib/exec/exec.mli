(** Deterministic parallel execution of independent jobs.

    A {!plan} is an array of independent jobs — thunks indexed by a job
    number, each deterministically seeded by its caller — plus a reducer
    that folds the job results, in index order, into one value. A
    {!scheduler} decides how the jobs run: strictly in order on the
    calling domain ({!sequential}), distributed over the process's
    persistent crew of worker domains ({!pool}), or sharded across a
    fleet of forked worker {e processes} ({!procs}).

    The determinism contract: because every job receives its randomness
    through its own index (e.g. [Prng.Rng.substream rng i]) and results
    are reduced in index order, the reducer sees the exact same array
    whatever the scheduler — [run sequential p], [run (pool w) p] and
    [run (procs w) p] are equal for every [w]. Schedulers change
    wall-clock time, never results.

    Jobs must not share mutable state: a job that needs a stateful model
    instance must construct its own (take a builder, not an instance).

    Observability: every job runs inside an {!Obs.Ambient.with_job}
    envelope — identical on every scheduler — that charges the
    [exec.plans] / [exec.jobs_claimed] / [exec.jobs_completed] /
    [exec.jobs_failed] counters, emits [exec.claim] / [exec.finish] /
    [exec.fail] trace events at deterministic plan/job coordinates,
    ticks {!Obs.Progress} for root-level plans, and propagates the
    caller's metric-attribution scope to pool workers. Under {!procs}
    the envelope runs worker-side and its counter deltas and trace
    events are merged back into the parent ({!Obs.Metrics.absorb},
    {!Obs.Trace.absorb}), so a merged metrics or trace flush is
    identical to a single-process one modulo wall times; the parent also
    stamps an [exec.worker<k>.heartbeat] gauge each time fleet slot [k]
    returns a result.
    With metrics, tracing and progress all disabled the envelope is a
    handful of atomic loads per job. *)

type scheduler
(** How the jobs of a plan are executed. *)

val sequential : scheduler
(** Run jobs in index order on the calling domain. *)

val pool : int -> scheduler
(** [pool w] runs jobs on [w] domains: the caller plus [w - 1] helpers
    of the process's persistent crew (the one {!Pool.run_tiles} uses),
    each claiming one job at a time from a shared atomic cursor. The
    crew grows on first use and its helpers, with their per-domain
    scratch, persist across plans. [w] is clamped to
    [max 4 (Domain.recommended_domain_count ())] — the lower bound keeps
    the multi-domain path exercisable on single-core CI machines, where
    extra workers cost only scheduling overhead, never determinism.
    [pool 1] is {!sequential}. Raises [Invalid_argument] when [w < 1]. *)

val procs : int -> scheduler
(** [procs w] runs the jobs of a {!plan_spec} plan on a fleet of up to
    [w] forked worker processes (clamped like {!pool}), one job per
    worker at a time; a one-job plan uses one worker. Unlike {!pool},
    [procs 1] is {e not} {!sequential}: a single worker process is still
    crash-isolated from the parent. {!run} raises [Invalid_argument] on
    a [procs] plan without a spec or before {!set_worker_command}; it
    never falls back to the in-process pool. Only inside a worker
    process ({!Worker.serve}) does a [procs] plan run like [pool w]:
    workers never fork grandchildren. Raises [Invalid_argument] when
    [w < 1]. *)

val of_int : int -> scheduler
(** [of_int w] is {!sequential} when [w <= 1], else [pool w]. The shape
    expected by a [--jobs N] command-line flag. *)

val default : unit -> scheduler
(** [of_int] applied to the [DYNGRAPH_JOBS] environment variable;
    {!sequential} when unset, below 1 or unparsable. A value below 1 or
    unparsable is reported once on stderr rather than silently
    ignored. *)

val default_procs : unit -> int
(** The [DYNGRAPH_PROCS] environment variable as a fleet size; [0]
    (fleet disabled) when unset, negative or unparsable. A negative or
    unparsable value is reported once on stderr. *)

val workers : scheduler -> int
(** Worker count: 1 for {!sequential}, the (clamped) pool or fleet size
    otherwise. *)

exception Fleet_failure of string
(** Raised by {!run} on the {!procs} path when the fleet cannot deliver:
    a worker reported a job exception (the message carries the worker's
    rendered exception and backtrace), a shard kept crashing workers
    past the retry budget, or the framed protocol was violated. *)

(** Serializable job specifications: the data a worker process needs to
    reconstruct and execute one job, plus the codec for its result.

    A spec is [{id; payload; decode}]: [id] names the job for journal
    matching and error messages, [payload] is an opaque binary request
    the worker-side dispatcher interprets, and [decode] turns the
    worker's binary response back into the job's result value. {!Buf}
    provides the length-prefixed binary primitives both sides share
    (8-byte big-endian integers, IEEE-754 bit-pattern floats,
    length-prefixed strings). *)
module Spec : sig
  type 'a t = { id : string; payload : string; decode : string -> 'a }

  module Buf : sig
    exception Corrupt of string
    (** Raised by readers on truncated or malformed input. *)

    val add_int : Buffer.t -> int -> unit

    val add_int64 : Buffer.t -> int64 -> unit

    val add_float : Buffer.t -> float -> unit

    val add_string : Buffer.t -> string -> unit

    val add_pairs : Buffer.t -> (string * int) list -> unit

    type reader = { data : string; mutable pos : int }

    val reader : string -> reader

    val need : reader -> int -> unit
    (** [need r n] raises {!Corrupt} unless [n >= 0] and at least [n]
        bytes remain. *)

    val char : reader -> char

    val int : reader -> int

    val int64 : reader -> int64

    val float : reader -> float

    val string : reader -> string

    val pairs : reader -> (string * int) list

    val at_end : reader -> bool
  end
end

(** The resumable checkpoint journal used by [run --procs --journal].

    On-disk format (DESIGN.md §10): a sequence of frames, each
    [8-byte length | payload | 8-byte checksum]. The first frame is a
    header identifying the plan (magic, job count, spec digest); each
    subsequent frame records one completed shard's raw response payload.
    Appends are fsynced, so every frame that parses is trustworthy; a
    torn tail frame (parent killed mid-append) is detected by length or
    checksum and truncated away on resume. A header that does not match
    the current plan discards the journal and starts fresh.

    Clean resume also compacts: when the file holds anything beyond the
    live frames — a torn tail, duplicate shards re-run after a worker
    crash, malformed or out-of-range records — it is rewritten as
    header + first-write-wins live entries (checksummed frames, fsynced)
    to a sibling temp file and atomically renamed over the original, so
    a long sweep's journal cannot grow without bound across resumes and
    a crash mid-compaction leaves the old journal intact. Compactions
    are counted by the [exec.journal_compactions] metric.

    Exposed for the test-suite; {!run} drives it via {!set_journal}. *)
module Journal : sig
  type entry = { job : int; spec_id : string; data : string }

  type t

  val open_ : path:string -> jobs:int -> digest:string -> t * entry list
  (** Open (creating or resuming) the journal at [path] for a plan of
      [jobs] shards identified by [digest]. Returns the journal plus the
      live completed-shard entries already on disk — in-range, first
      write per job — empty after a fresh create or a header mismatch.
      A resume that found any dead bytes (torn tail, duplicates,
      malformed records) compacts the file first; see above.*)

  val append : t -> job:int -> spec_id:string -> data:string -> unit
  (** Record a completed shard (durable before return). *)

  val close : t -> unit
end

(** Fleet configuration, set by the hosting executable before running
    {!procs} plans. *)

val set_worker_command : string array option -> unit
(** The argv (program first) to spawn for each fleet worker — typically
    the current executable with a subcommand that calls {!Worker.serve}.
    [None] is the initial state, in which {!run} rejects {!procs}
    plans. *)

val set_journal : string option -> unit
(** Checkpoint journal path for root-level {!procs} plans ([None]
    disables checkpointing, the initial state). Nested plans are never
    journaled. *)

val set_worker_timeout : float option -> unit
(** Per-shard budget in seconds, measured on the {e monotonic} clock
    ({!Obs.Clock.monotonic}) so NTP steps and suspend/resume cannot
    falsely fire — or indefinitely defer — hang detection. A worker that
    holds one shard past the budget without signs of life is SIGKILLed
    and its shard re-run on a fresh worker; a forwarded progress frame
    ('P') counts as a sign of life and restarts the shard's deadline.
    Defaults to the [DYNGRAPH_PROC_TIMEOUT] environment variable when
    set and parsable (warned once otherwise), else no timeout. *)

(** Deadline arithmetic for hang detection, on {!Obs.Clock.monotonic}.
    Exposed so the conversion is unit-testable with an injected clock
    (no real sleeps). *)
module Deadline : sig
  type t

  val none : t
  (** Unarmed: never {!expired}, waits forever. *)

  val arm : float -> t
  (** [arm seconds] is the deadline [seconds] from now on the monotonic
      clock. *)

  val armed : t -> bool

  val expired : t -> bool
  (** Whether the monotonic clock has reached an armed deadline.
      [expired none] is always [false]. *)

  val seconds_left : t -> float
  (** Monotonic seconds until expiry ([infinity] when unarmed; may be
      negative once expired). *)
end

(** The worker side of the fleet protocol. *)
module Worker : sig
  val serve :
    ?forward_progress:bool -> dispatch:(id:string -> payload:string -> string) -> unit -> unit
  (** Serve framed job requests from stdin, writing framed responses to
      stdout, until EOF or an explicit shutdown frame. Marks this
      process as a worker: from here on {!procs} plans run like
      {!pool} plans instead of spawning a fleet.

      Workers never render progress to the shared stderr (concurrent
      shards would tear each other's lines): {!Obs.Progress} is disabled
      on entry unless [forward_progress] is set (the parent passed
      [--progress-pipe]), in which case progress updates from the jobs
      this worker runs are forwarded as framed 'P' messages for the
      parent to render as one coherent stream — and to treat as liveness
      for hang detection.

      For each request,
      [dispatch ~id ~payload] executes the job and returns its encoded
      result; it runs inside the standard observability envelope with
      the parent-assigned plan/job coordinates, after resetting this
      process's metrics and trace ring so the response carries exactly
      this job's counter deltas and trace events for the parent to
      merge. A [dispatch] exception becomes an error response carrying
      the rendered exception and backtrace (the parent then fails the
      whole plan, matching in-process semantics).

      File descriptor 1 is re-pointed at stderr on entry so stray prints
      from experiment code cannot corrupt the protocol stream.

      Test instrumentation: [DYNGRAPH_FLEET_CRASH="ID:MARKER"] makes the
      worker exit (code 70) the first time it is asked to run spec [ID]
      while [MARKER] does not exist, creating [MARKER] first so the
      fault is one-shot; [DYNGRAPH_FLEET_HANG] wedges it instead. Both
      exist to drive the crash-isolation and timeout paths
      deterministically from tests. *)
end

type ('a, 'b) plan
(** [jobs] independent computations producing ['a], reduced to a ['b]. *)

val plan : jobs:int -> job:(int -> 'a) -> reduce:('a array -> 'b) -> ('a, 'b) plan
(** [plan ~jobs ~job ~reduce]: [job i] for [i] in [0 .. jobs - 1];
    [reduce] receives [[| job 0; ...; job (jobs - 1) |]]. Raises
    [Invalid_argument] when [jobs < 0]. *)

val plan_spec :
  jobs:int ->
  job:(int -> 'a) ->
  spec:(int -> 'a Spec.t) ->
  reduce:('a array -> 'b) ->
  ('a, 'b) plan
(** Like {!plan}, with a serializable spec per job so the plan can run
    on a {!procs} fleet. Contract: [(spec i).decode] applied to the
    worker's response for [spec i] must equal [job i] — the fleet path
    runs the spec, every other scheduler runs [job]. *)

val run : scheduler -> ('a, 'b) plan -> 'b
(** Execute a plan. Results reach the reducer in job-index order
    regardless of the scheduler. If a job raises, the crew drains
    (no helper is left running a job), the remaining unclaimed jobs are
    skipped, and the first exception observed is re-raised with its
    backtrace — [run] never hangs on a failing job.

    A [pool] run started from inside a pool job (or a tile) runs
    sequentially instead of re-entering the crew, so one scheduler
    value can be threaded through every layer of a computation without
    oversubscribing the machine.

    Progress ({!Obs.Progress}) and the {!set_journal} journal belong to
    the outermost plan that splits work: one with more than one job, or
    a fleet plan. A one-job in-process plan leaves them to the plans
    its job runs.

    Outside a worker process, a [procs] plan always runs on the fleet,
    and raises [Invalid_argument] when it has no spec or no
    {!set_worker_command} is configured. The fleet hands jobs to worker
    processes in index order, one at a time per worker; a worker's
    forwarded progress frames reach the parent's progress line. A
    worker that crashes or exceeds the shard timeout loses only its own
    shard, which is re-run on a fresh worker
    (up to 3 attempts, counted by [exec.shard_reruns]); completed shards
    are kept, and checkpointed to the {!set_journal} journal when one is
    configured, so a killed parent resumes instead of recomputing. A
    shard that keeps killing workers, or a job exception reported by a
    worker, fails the plan with {!Fleet_failure}. *)

val map : scheduler -> jobs:int -> (int -> 'a) -> 'a array
(** [map s ~jobs f] is [run s (plan ~jobs ~job:f ~reduce:Fun.id)]. *)

(** The persistent crew of helper domains, and intra-run tile
    parallelism on it.

    One crew serves both axes: {!run} on a {!pool} parallelizes
    {e across} independent trials, and [run_tiles] splits the inside of
    one large run (the partitioned off-heap edge-MEG step) into
    independent tiles. Helpers persist between tasks, sleeping on a
    condition variable, because tile tasks are issued every round and
    per-call domain spawns would swamp the work; they are joined
    automatically at process exit. A task of width [w] runs on the
    caller and helpers [1 .. w - 1] (in spawn order), so a plan or
    fan-out never uses more domains than its width, even after a wider
    one grew the crew.

    Determinism contract: [run_tiles n f] is semantically
    [for i = 0 to n - 1 do f i done] provided the [f i] have disjoint
    effects. Whether fan-out engages, and which domain runs which tile,
    is unobservable — callers that merge per-tile output do so in
    tile-index order, keeping results byte-identical at any worker
    count. Calls made from inside the crew (a tile, or a {!run} pool
    job) always degrade to the sequential loop, so kernels can
    be used freely under trial-level parallelism without
    oversubscribing the machine. *)
module Pool : sig
  val set_workers : int -> unit
  (** Target worker count for subsequent fan-outs, clamped like {!pool}.
      Typically wired to [--jobs] by the hosting executable; a fleet
      worker takes it from the [--jobs] on its own command line. Raises
      [Invalid_argument] when [w < 1]. *)

  val workers : unit -> int
  (** The current target: the last {!set_workers} value, else
      [DYNGRAPH_JOBS] (via {!default}), else 1. *)

  val run_tiles : int -> (int -> unit) -> unit
  (** [run_tiles ntiles f] runs [f 0 .. f (ntiles - 1)], possibly in
      parallel on the crew ([workers ()] wide) with the caller
      participating. The crew engages only with more than one worker,
      at least two tiles per worker, and a caller that is not itself
      inside the crew; otherwise the loop runs inline.
      The [f i] must have pairwise-disjoint effects. If some [f i]
      raises, remaining unclaimed tiles are skipped, the crew drains to
      idle (and stays reusable), and the first exception observed is
      re-raised with its backtrace. Charges [exec.tile_plans] /
      [exec.tiles] counters identically whether or not fan-out
      engages. Raises [Invalid_argument] when [ntiles < 0]. *)
end
