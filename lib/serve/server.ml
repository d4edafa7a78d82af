(* The long-lived simulation daemon behind `dyngraph serve`.

   Concurrency model: one reader thread per connection parses request
   lines and answers the cheap ops (list/ping) inline; run requests are
   enqueued per connection and drained by one executor thread that
   picks connections round-robin, so one greedy client cannot starve
   the rest. Requests run one at a time: Flooding's and Gossip's
   scratch and Exec's inside-a-plan flags live in Domain.DLS, which
   every thread of the domain shares, so a second executor thread
   could see another request's state mid-run (two executors did
   return results that differ from the batch CLI). A long request
   therefore delays later ones, across connections too. Parallelism
   comes from *inside* each request — the experiment's own plans run
   on the in-process Domain pool (or, with [procs], the whole request
   runs on one worker process), and the persistent Exec.Pool tile
   workers (plus the per-domain scratch and the Rng.Geo alias tables
   interned by the kernels) stay warm across requests. That warm state, plus a bounded
   result cache keyed by the full request parameters, is the daemon's
   reason to exist over re-execing the batch CLI.

   Byte identity: a run request executes through
   Registry.single_outcome, the same seeding scheme as the batch
   `dyngraph run <id> --seed S`, so the [output] field of a result
   frame is byte-identical to that CLI invocation's stdout.

   Shutdown: request_stop (called from a SIGTERM/SIGINT handler) sets a
   flag and pokes a self-pipe; the accept loop wakes, the executor
   finishes its current request and the queued ones fail, sockets are
   shut down so reader threads see EOF, and the Unix socket path is
   unlinked. *)

type config = {
  socket_path : string;
  tcp_port : int option;
  jobs : int;
  executors : int;
  procs : int;
  cache_capacity : int;
}

let default_config =
  {
    socket_path = "dyngraph.sock";
    tcp_port = None;
    jobs = 1;
    executors = 1;
    procs = 0;
    cache_capacity = 64;
  }

(* Least-recently-used eviction: every find hit and every store stamps
   the entry from a per-cache use clock, and a full cache evicts the
   smallest stamp. Eviction is an O(n) scan — fine at the default
   capacity of 64. *)
module Cache = struct
  type entry = { output : string; ok : bool; mutable stamp : int }

  type t = {
    capacity : int;
    m : Mutex.t;
    tbl : (string, entry) Hashtbl.t;
    mutable clock : int;
  }

  let create capacity = { capacity; m = Mutex.create (); tbl = Hashtbl.create 64; clock = 0 }

  let length t = Hashtbl.length t.tbl

  (* Called under t.m. *)
  let touch t e =
    t.clock <- t.clock + 1;
    e.stamp <- t.clock

  let find t key =
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | None -> None
        | Some e ->
            touch t e;
            Some (e.output, e.ok))

  (* Called under t.m. *)
  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, stamp) when stamp <= e.stamp -> ()
        | _ -> victim := Some (k, e.stamp))
      t.tbl;
    Option.iter (fun (k, _) -> Hashtbl.remove t.tbl k) !victim

  let store t key ~output ~ok =
    if t.capacity > 0 then
      Mutex.protect t.m (fun () ->
          if not (Hashtbl.mem t.tbl key) then
            while Hashtbl.length t.tbl >= t.capacity do
              evict_lru t
            done;
          let e = { output; ok; stamp = 0 } in
          touch t e;
          Hashtbl.replace t.tbl key e)
end

let c_requests = Obs.Metrics.counter "serve.requests"

let c_cache_hits = Obs.Metrics.counter "serve.cache_hits"

let c_errors = Obs.Metrics.counter "serve.errors"

type job = {
  req : int;
  exp : Simulate.Registry.experiment;
  seed : int;
  scale : Simulate.Runner.scale;
  render : Simulate.Registry.render;
}

type conn = {
  fd : Unix.file_descr;
  out_mutex : Mutex.t;
  mutable alive : bool;
  mutable next_req : int;  (* server-assigned tags for untagged requests *)
  queue : job Queue.t;  (* guarded by the scheduler mutex *)
}

type t = {
  config : config;
  sched : Exec.scheduler;
  stop : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  m : Mutex.t;  (* guards conns, every conn.queue, rr *)
  cv : Condition.t;
  mutable conns : conn list;
  mutable rr : int;  (* round-robin cursor over conns *)
  mutable listeners : Unix.file_descr list;
  mutable accept_thread : Thread.t option;
  mutable executor_thread : Thread.t option;
  mutable reader_threads : Thread.t list;
  cache : Cache.t;
}

(* --- connection output --- *)

let send_line conn line =
  Mutex.lock conn.out_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.out_mutex)
    (fun () ->
      if conn.alive then begin
        let data = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length data in
        let off = ref 0 in
        try
          while !off < len do
            let k = Unix.write conn.fd data !off (len - !off) in
            if k = 0 then raise Exit;
            off := !off + k
          done
        with Unix.Unix_error _ | Exit -> conn.alive <- false
      end)

let send_msg conn m = send_line conn (Protocol.encode_msg m)

(* --- the scheduler --- *)

let enqueue t conn job =
  Mutex.lock t.m;
  Queue.add job conn.queue;
  Condition.signal t.cv;
  Mutex.unlock t.m

(* Round-robin over connections with pending work; called under t.m. *)
let take_job t =
  let cs = Array.of_list t.conns in
  let k = Array.length cs in
  if k = 0 then None
  else begin
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < k do
      let c = cs.((t.rr + !i) mod k) in
      if not (Queue.is_empty c.queue) then begin
        t.rr <- (t.rr + !i + 1) mod k;
        found := Some (c, Queue.take c.queue)
      end;
      incr i
    done;
    !found
  end

let cache_key (job : job) =
  Printf.sprintf "%s|%d|%s|%s" job.exp.Simulate.Registry.id job.seed
    (Protocol.scale_to_string job.scale)
    (Protocol.render_to_string job.render)

(* Execute one run request and stream its frames. The executor is the
   only user of the process-global Obs.Progress renderer, so every
   request streams its own progress frames. *)
let execute t conn (job : job) =
  Obs.Metrics.incr c_requests;
  let id = job.exp.Simulate.Registry.id in
  let key = cache_key job in
  match Cache.find t.cache key with
  | Some (output, ok) ->
      Obs.Metrics.incr c_cache_hits;
      send_msg conn
        (Result { req = job.req; id; ok; cached = true; seconds = 0.; output })
  | None ->
      let renderer (u : Obs.Progress.update) =
        send_msg conn
          (Progress
             {
               req = job.req;
               id;
               completed = u.Obs.Progress.completed;
               total = u.Obs.Progress.total;
               sub = u.Obs.Progress.sub;
             })
      in
      Obs.Progress.set_renderer (Some renderer);
      Obs.Progress.enable ();
      let finish () =
        Obs.Progress.disable ();
        Obs.Progress.set_renderer None
      in
      (match
         Simulate.Registry.single_outcome ~clock:Obs.Clock.monotonic ~render:job.render
           ~sched:t.sched ~seed:job.seed ~scale:job.scale job.exp
       with
      | output, ok, seconds, _ ->
          finish ();
          Cache.store t.cache key ~output ~ok;
          send_msg conn (Result { req = job.req; id; ok; cached = false; seconds; output })
      | exception e ->
          finish ();
          Obs.Metrics.incr c_errors;
          send_msg conn
            (Error { req = job.req; message = "experiment raised: " ^ Printexc.to_string e }))

let executor t () =
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    let rec next () =
      match take_job t with
      | Some (conn, job) -> Some (conn, job)
      | None ->
          if Atomic.get t.stop then None
          else begin
            Condition.wait t.cv t.m;
            next ()
          end
    in
    let picked = next () in
    Mutex.unlock t.m;
    match picked with
    | None -> continue := false
    | Some (conn, job) -> if conn.alive then execute t conn job
  done

(* --- connection reader --- *)

let handle_line t conn line =
  match Protocol.decode_request line with
  | Result.Error msg ->
      Obs.Metrics.incr c_errors;
      send_msg conn (Error { req = -1; message = "bad request: " ^ msg })
  | Ok (tag, request) -> (
      let req =
        match tag with
        | Some r -> r
        | None ->
            let r = conn.next_req in
            conn.next_req <- r + 1;
            r
      in
      match request with
      | Protocol.Ping -> send_msg conn (Pong { req })
      | Protocol.List ->
          send_msg conn
            (Listing
               {
                 req;
                 experiments =
                   List.map
                     (fun (e : Simulate.Registry.experiment) ->
                       (e.Simulate.Registry.id, e.Simulate.Registry.title))
                     Simulate.Registry.all;
               })
      | Protocol.Run { id; seed; scale; render } -> (
          match Simulate.Registry.find id with
          | None ->
              Obs.Metrics.incr c_errors;
              send_msg conn (Error { req; message = Printf.sprintf "unknown experiment %S" id })
          | Some exp -> enqueue t conn { req; exp; seed; scale; render }))

let reader t conn () =
  let ic = Unix.in_channel_of_descr conn.fd in
  (try
     while conn.alive && not (Atomic.get t.stop) do
       let line = input_line ic in
       if String.trim line <> "" then handle_line t conn line
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  (* Retire the connection: stop writers first, then unregister. *)
  Mutex.lock conn.out_mutex;
  conn.alive <- false;
  Mutex.unlock conn.out_mutex;
  Mutex.lock t.m;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.m;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* --- listeners and lifecycle --- *)

let accept_loop t () =
  let continue = ref true in
  while !continue do
    match Unix.select (t.stop_r :: t.listeners) [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.mem t.stop_r ready || Atomic.get t.stop then continue := false
        else
          List.iter
            (fun lfd ->
              if List.mem lfd ready then begin
                match Unix.accept lfd with
                | exception Unix.Unix_error _ -> ()
                | fd, _ ->
                    let conn =
                      {
                        fd;
                        out_mutex = Mutex.create ();
                        alive = true;
                        next_req = 0;
                        queue = Queue.create ();
                      }
                    in
                    Mutex.lock t.m;
                    t.conns <- t.conns @ [ conn ];
                    t.reader_threads <- Thread.create (reader t conn) () :: t.reader_threads;
                    Mutex.unlock t.m
              end)
            t.listeners
  done

let create config =
  let reject field range =
    invalid_arg (Printf.sprintf "Server.create: %s must be %s" field range)
  in
  if config.jobs < 1 then reject "jobs" ">= 1";
  if config.executors <> 1 then reject "executors" "1";
  (* A request is a one-job plan, so a fleet never uses a second
     worker. *)
  if config.procs < 0 || config.procs > 1 then reject "procs" "0 or 1";
  if config.cache_capacity < 0 then reject "cache_capacity" ">= 0";
  (* A stale socket file from a crashed daemon would make bind fail. *)
  (match Unix.lstat config.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink config.socket_path with _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let unix_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind unix_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen unix_fd 64;
  let listeners = ref [ unix_fd ] in
  (match config.tcp_port with
  | None -> ()
  | Some port ->
      let tcp_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt tcp_fd Unix.SO_REUSEADDR true;
      Unix.bind tcp_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen tcp_fd 64;
      listeners := tcp_fd :: !listeners);
  let stop_r, stop_w = Unix.pipe () in
  (* A dead client mid-write must cost EPIPE, not process death. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  Exec.Pool.set_workers config.jobs;
  let t =
    {
      config;
      (* With [procs] each request is a one-job fleet plan that runs on
         one worker process (the hosting executable must have called
         Exec.set_worker_command); otherwise the in-process pool. *)
      sched =
        (if config.procs > 0 then Exec.procs config.procs else Exec.of_int config.jobs);
      stop = Atomic.make false;
      stop_r;
      stop_w;
      m = Mutex.create ();
      cv = Condition.create ();
      conns = [];
      rr = 0;
      listeners = !listeners;
      accept_thread = None;
      executor_thread = None;
      reader_threads = [];
      cache = Cache.create config.cache_capacity;
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t.executor_thread <- Some (Thread.create (executor t) ());
  t

let request_stop t =
  if not (Atomic.exchange t.stop true) then
    (* Poke the accept loop's select. Async-signal-safe enough: one
       write to a private pipe. *)
    try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1) with Unix.Unix_error _ -> ()

let wait t =
  (* Poll rather than join outright: a thread blocked in [Thread.join]
     never reaches a safe point, so an OCaml signal handler (the
     SIGTERM path) would never run. [Thread.delay] wakes the main
     thread every 200ms to process pending signal actions. *)
  while not (Atomic.get t.stop) do
    Thread.delay 0.2
  done;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (* Wake the executor (the accept loop is gone, so conns is stable
     modulo reader-thread retirement). *)
  Mutex.lock t.m;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  Option.iter Thread.join t.executor_thread;
  (* Fail whatever is still queued, then push EOF at the readers:
     shutdown (not close) interrupts their blocking reads. *)
  Mutex.lock t.m;
  let conns = t.conns in
  Mutex.unlock t.m;
  List.iter
    (fun conn ->
      Queue.iter
        (fun (job : job) ->
          send_msg conn (Error { req = job.req; message = "server shutting down" }))
        conn.queue;
      Queue.clear conn.queue;
      try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun th -> try Thread.join th with _ -> ()) t.reader_threads;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ());
  if Obs.Metrics.enabled () then
    Printf.eprintf "dyngraph serve: %d requests, %d cache hits, %d errors\n%!"
      (Obs.Metrics.value c_requests) (Obs.Metrics.value c_cache_hits)
      (Obs.Metrics.value c_errors)

let stop t =
  request_stop t;
  wait t

let run config =
  let t = create config in
  wait t
