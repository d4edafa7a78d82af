(** The long-lived simulation daemon behind [dyngraph serve].

    Accepts concurrent clients on a Unix socket (and optionally
    loopback TCP) speaking the NDJSON {!Protocol}. One reader thread
    per connection answers [list]/[ping] inline and enqueues [run]
    requests per connection; one executor thread drains the queues
    round-robin across connections — fair scheduling — and runs one
    request at a time, so a long request delays later ones, across
    connections too. Parallelism lives {e inside} each request (the
    experiment's own plans run on the in-process Domain pool sized by
    [jobs], and the persistent {!Exec.Pool} tile workers, per-domain
    scratch and interned alias tables stay warm across requests). With
    [procs = 1] each request is instead a one-job {!Exec.procs} plan
    on one worker process, crash-isolated from the daemon. Every
    executed request streams its own progress frames. A bounded
    least-recently-used result cache keyed by
    [(id, seed, scale, render)] answers repeats with [cached = true].

    A [run] request's [output] is byte-identical to the batch CLI
    [dyngraph run <id> --seed S] stdout for the same parameters (both
    execute {!Simulate.Registry.single_outcome}).

    The hosting executable should install a real wall clock and enable
    metrics before {!create}; [serve.requests], [serve.cache_hits] and
    [serve.errors] count traffic. With [procs = 1] it must also have
    configured {!Exec.set_worker_command}. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** bound on loopback when set *)
  jobs : int;  (** in-process Domain pool size per request (>= 1) *)
  executors : int;  (** must be 1: there is one executor thread *)
  procs : int;
      (** 0 = in-process, 1 = on a worker process; a request is one
          job, so a larger fleet would never use a second worker *)
  cache_capacity : int;  (** warm result-cache entries (>= 0); 0 disables *)
}

val default_config : config
(** [dyngraph.sock], no TCP, 1 job, no fleet, 64 cache entries. *)

(** The daemon's result cache: least-recently-used eviction. Every hit
    and every insert marks the entry as the most recently used; a full
    cache evicts the entry used longest ago. Thread-safe. Exposed for
    the eviction tests. *)
module Cache : sig
  type t

  val create : int -> t
  (** [create capacity]; capacity 0 disables storage. *)

  val length : t -> int

  val find : t -> string -> (string * bool) option
  (** Lookup; a hit marks the entry most recently used. *)

  val store : t -> string -> output:string -> ok:bool -> unit
  (** Insert or refresh as the most recently used entry, evicting the
      least recently used ones while the cache is full. *)
end

type t

val create : config -> t
(** Bind the sockets (unlinking a stale socket file first), start the
    accept and executor threads, and return immediately. Raises
    [Invalid_argument] when [jobs < 1], [executors <> 1], [procs] is
    not 0 or 1 or [cache_capacity < 0], and [Unix.Unix_error] if a
    socket cannot be bound. Ignores SIGPIPE. *)

val request_stop : t -> unit
(** Begin shutdown; safe to call from a signal handler (one atomic
    store plus a self-pipe write). Idempotent. *)

val wait : t -> unit
(** Block until the server has shut down: the executor finishes its
    current request, queued requests are failed with
    ["server shutting down"], client sockets are shut down, listener
    fds are closed and the Unix socket path is unlinked. *)

val stop : t -> unit
(** [request_stop] then [wait] — for in-process servers (tests,
    bench). *)

val run : config -> unit
(** [create] then [wait]: the daemon main loop. Install signal
    handlers around this (see [dyngraph serve]). *)
