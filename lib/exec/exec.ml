type scheduler = Sequential | Pool of int | Procs of int

let sequential = Sequential

(* Never below 4: on single-core CI machines recommended_domain_count is
   1 and a hard clamp would silently turn every pool into Sequential,
   leaving the multi-domain path untested. Oversubscription by a few
   domains costs scheduling overhead only; determinism never depends on
   the worker count. *)
let max_workers = max 4 (Domain.recommended_domain_count ())

let pool w =
  if w < 1 then invalid_arg "Exec.pool: workers must be >= 1";
  if w = 1 then Sequential else Pool (min w max_workers)

let of_int w = if w <= 1 then Sequential else pool w

(* [procs 1] stays a fleet of one: a single worker process is still
   crash-isolated from the parent, which is the point of the scheduler. *)
let procs w =
  if w < 1 then invalid_arg "Exec.procs: workers must be >= 1";
  Procs (min w max_workers)

(* Warn-once bookkeeping for environment values we refuse to guess
   about: an unparsable or out-of-range value is ignored, but silently
   ignoring it cost real debugging time, so say so (once per variable
   and value) on stderr. *)
let warned_env : (string * string, unit) Hashtbl.t = Hashtbl.create 4

let warn_env var value expected =
  if not (Hashtbl.mem warned_env (var, value)) then begin
    Hashtbl.add warned_env (var, value) ();
    Printf.eprintf "dyngraph: ignoring %s=%S (expected %s)\n%!" var value expected
  end

let default () =
  match Sys.getenv_opt "DYNGRAPH_JOBS" with
  | None -> Sequential
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some w when w >= 1 -> of_int w
      | Some _ | None ->
          warn_env "DYNGRAPH_JOBS" s "a positive integer";
          Sequential)

let default_procs () =
  match Sys.getenv_opt "DYNGRAPH_PROCS" with
  | None -> 0
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some w when w >= 0 -> w
      | Some _ | None ->
          warn_env "DYNGRAPH_PROCS" s "a non-negative integer";
          0)

let workers = function Sequential -> 1 | Pool w | Procs w -> w

(* --- serializable job specs --- *)

module Spec = struct
  type 'a t = { id : string; payload : string; decode : string -> 'a }

  module Buf = struct
    exception Corrupt of string

    let add_int64 b v =
      for i = 7 downto 0 do
        Buffer.add_char b
          (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
      done

    let add_int b n = add_int64 b (Int64.of_int n)

    let add_float b f = add_int64 b (Int64.bits_of_float f)

    let add_string b s =
      add_int b (String.length s);
      Buffer.add_string b s

    let add_pairs b l =
      add_int b (List.length l);
      List.iter
        (fun (k, v) ->
          add_string b k;
          add_int b v)
        l

    type reader = { data : string; mutable pos : int }

    let reader data = { data; pos = 0 }

    let need r n =
      if n < 0 || n > String.length r.data - r.pos then raise (Corrupt "truncated frame")

    let char r =
      need r 1;
      let c = r.data.[r.pos] in
      r.pos <- r.pos + 1;
      c

    let int64 r =
      need r 8;
      let v = ref 0L in
      for _ = 1 to 8 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos]));
        r.pos <- r.pos + 1
      done;
      !v

    let int r = Int64.to_int (int64 r)

    let float r = Int64.float_of_bits (int64 r)

    let string r =
      let n = int r in
      need r n;
      let s = String.sub r.data r.pos n in
      r.pos <- r.pos + n;
      s

    let pairs r =
      let n = int r in
      (* Explicit lets: tuple components would evaluate right-to-left,
         reading the int before the string. *)
      let rec go n acc =
        if n = 0 then List.rev acc
        else
          let k = string r in
          let v = int r in
          go (n - 1) ((k, v) :: acc)
      in
      go n []

    let at_end r = r.pos = String.length r.data
  end
end

exception Fleet_failure of string

(* --- length-prefixed framing over file descriptors --- *)

let max_frame = 1 lsl 28

let rec retry_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let rec write_all fd buf off len =
  if len > 0 then begin
    let k = retry_intr (fun () -> Unix.write fd buf off len) in
    write_all fd buf (off + k) (len - k)
  end

(* [false] on EOF before [len] bytes. *)
let rec read_all fd buf off len =
  if len = 0 then true
  else
    let k = retry_intr (fun () -> Unix.read fd buf off len) in
    if k = 0 then false else read_all fd buf (off + k) (len - k)

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Exec: frame too large";
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b 0 (4 + len)

let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_all fd hdr 0 4) then None
  else begin
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_frame then raise (Fleet_failure "oversized protocol frame");
    let buf = Bytes.create len in
    if not (read_all fd buf 0 len) then None else Some (Bytes.unsafe_to_string buf)
  end

(* --- trace-event wire codec (shares Spec.Buf primitives) --- *)

let add_event b (ev : Obs.Trace.event) =
  Spec.Buf.add_string b ev.name;
  Spec.Buf.add_int b (Array.length ev.path);
  Array.iter (Spec.Buf.add_int b) ev.path;
  Spec.Buf.add_int b ev.seq;
  Spec.Buf.add_float b ev.wall;
  Spec.Buf.add_int b (List.length ev.fields);
  List.iter
    (fun (k, (f : Obs.Trace.field)) ->
      Spec.Buf.add_string b k;
      match f with
      | Int i ->
          Buffer.add_char b 'i';
          Spec.Buf.add_int b i
      | Float x ->
          Buffer.add_char b 'f';
          Spec.Buf.add_float b x
      | Str s ->
          Buffer.add_char b 's';
          Spec.Buf.add_string b s)
    ev.fields

let read_event r : Obs.Trace.event =
  let name = Spec.Buf.string r in
  let np = Spec.Buf.int r in
  Spec.Buf.need r 0;
  if np < 0 || np > 1024 then raise (Spec.Buf.Corrupt "event path length");
  let path = Array.make np 0 in
  for i = 0 to np - 1 do
    path.(i) <- Spec.Buf.int r
  done;
  let seq = Spec.Buf.int r in
  let wall = Spec.Buf.float r in
  let nf = Spec.Buf.int r in
  let rec fields n acc =
    if n = 0 then List.rev acc
    else begin
      let k = Spec.Buf.string r in
      let f : Obs.Trace.field =
        match Spec.Buf.char r with
        | 'i' -> Int (Spec.Buf.int r)
        | 'f' -> Float (Spec.Buf.float r)
        | 's' -> Str (Spec.Buf.string r)
        | _ -> raise (Spec.Buf.Corrupt "event field tag")
      in
      fields (n - 1) ((k, f) :: acc)
    end
  in
  { name; path; seq; wall; fields = fields nf [] }

(* --- checkpoint journal --- *)

module Journal = struct
  type entry = { job : int; spec_id : string; data : string }

  type t = { fd : Unix.file_descr }

  let magic = "DGJL1"

  (* Cheap polynomial checksum: catches the torn tail record a SIGKILL
     mid-append leaves behind. Not cryptographic and not meant to be. *)
  let checksum s =
    let h = ref 0 in
    String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0x3FFFFFFF) s;
    !h

  let write_journal_frame fd payload =
    let b = Buffer.create (String.length payload + 16) in
    Spec.Buf.add_int b (String.length payload);
    Buffer.add_string b payload;
    Spec.Buf.add_int b (checksum payload);
    let s = Buffer.contents b in
    write_all fd (Bytes.unsafe_of_string s) 0 (String.length s);
    (* Make completed shards durable before the parent reports (or
       loses) them: a crashed parent must be able to trust every frame
       that parses. *)
    (try Unix.fsync fd with Unix.Unix_error _ -> ())

  (* Parse as many valid frames as the content holds; [good] is the
     offset just past the last valid frame — everything after it (a torn
     append) gets truncated away on resume. *)
  let parse_frames content =
    let r = Spec.Buf.reader content in
    let rec go acc good =
      if String.length content - r.Spec.Buf.pos < 16 then (List.rev acc, good)
      else
        match
          let len = Spec.Buf.int r in
          if len < 0 || len > max_frame || String.length content - r.Spec.Buf.pos < len + 8
          then raise Exit;
          let payload = String.sub content r.Spec.Buf.pos len in
          r.Spec.Buf.pos <- r.Spec.Buf.pos + len;
          if Spec.Buf.int r <> checksum payload then raise Exit;
          payload
        with
        | payload -> go (payload :: acc) r.Spec.Buf.pos
        | exception _ -> (List.rev acc, good)
    in
    go [] 0

  let header_payload ~jobs ~digest =
    let b = Buffer.create 64 in
    Spec.Buf.add_string b magic;
    Spec.Buf.add_int b jobs;
    Spec.Buf.add_string b digest;
    Buffer.contents b

  let parse_record payload =
    match
      let r = Spec.Buf.reader payload in
      match Spec.Buf.char r with
      | 'C' ->
          let job = Spec.Buf.int r in
          let spec_id = Spec.Buf.string r in
          let data = Spec.Buf.string r in
          if Spec.Buf.at_end r then Some { job; spec_id; data } else None
      | _ -> None
    with
    | v -> v
    | exception Spec.Buf.Corrupt _ -> None

  let c_compactions = Obs.Metrics.counter "exec.journal_compactions"

  let record_payload ~job ~spec_id ~data =
    let b = Buffer.create (String.length data + 32) in
    Buffer.add_char b 'C';
    Spec.Buf.add_int b job;
    Spec.Buf.add_string b spec_id;
    Spec.Buf.add_string b data;
    Buffer.contents b

  (* The live entries of a resumed journal: parseable 'C' records whose
     job is in the plan's range, first write per job wins (re-runs of a
     shard after a worker crash can append duplicates; the first one
     was already durable and is the one a resumed run would have
     used). *)
  let live_entries ~jobs payloads =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun e ->
        e.job >= 0 && e.job < jobs
        && not (Hashtbl.mem seen e.job)
        && (Hashtbl.add seen e.job (); true))
      (List.filter_map parse_record payloads)

  (* Rewrite the journal to exactly header + live entries: a long sweep
     resumed many times accumulates duplicate and torn frames without
     bound, and the rewrite is also what reclaims the truncated tail's
     disk. Written to a sibling temp file (checksummed frames, fsynced)
     and renamed over the original, so a crash mid-compaction leaves
     the old journal intact. *)
  let compact ~path ~header entries =
    let tmp = path ^ ".compact.tmp" in
    let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    write_journal_frame fd header;
    List.iter
      (fun e ->
        write_journal_frame fd (record_payload ~job:e.job ~spec_id:e.spec_id ~data:e.data))
      entries;
    Unix.close fd;
    Unix.rename tmp path;
    Obs.Metrics.incr c_compactions;
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    fd

  let open_ ~path ~jobs ~digest =
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    let size = (Unix.fstat fd).Unix.st_size in
    let buf = Bytes.create size in
    let content = if read_all fd buf 0 size then Bytes.unsafe_to_string buf else "" in
    let frames, good = parse_frames content in
    let header = header_payload ~jobs ~digest in
    match frames with
    | h :: rest when h = header ->
        let entries = live_entries ~jobs rest in
        (* Clean resume: compact when the file holds anything beyond
           the live frames — a torn tail, duplicate shards, malformed
           or out-of-range records. *)
        if good < size || List.length entries < List.length rest then begin
          Unix.close fd;
          ({ fd = compact ~path ~header entries }, entries)
        end
        else begin
          ignore (Unix.lseek fd good Unix.SEEK_SET);
          ({ fd }, entries)
        end
    | _ ->
        (* Fresh journal, or one for a different plan (other seed,
           scale, experiment set): start over rather than mix shards. *)
        Unix.ftruncate fd 0;
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        write_journal_frame fd header;
        ({ fd }, [])

  let append t ~job ~spec_id ~data =
    write_journal_frame t.fd (record_payload ~job ~spec_id ~data)

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* --- fleet configuration (set by the hosting executable) --- *)

let worker_command_ref : string array option ref = ref None

let set_worker_command c = worker_command_ref := c

let journal_ref : string option ref = ref None

let set_journal p = journal_ref := p

let worker_timeout_ref : float option ref = ref None

let worker_timeout_initialised = ref false

let worker_timeout () =
  if not !worker_timeout_initialised then begin
    worker_timeout_initialised := true;
    match Sys.getenv_opt "DYNGRAPH_PROC_TIMEOUT" with
    | None -> ()
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some t when t > 0. -> worker_timeout_ref := Some t
        | Some _ | None -> warn_env "DYNGRAPH_PROC_TIMEOUT" s "a positive number of seconds")
  end;
  !worker_timeout_ref

let set_worker_timeout t =
  worker_timeout_initialised := true;
  worker_timeout_ref := t

let in_worker_flag = ref false

(* --- plans --- *)

type ('a, 'b) plan = {
  jobs : int;
  job : int -> 'a;
  spec : (int -> 'a Spec.t) option;
  reduce : 'a array -> 'b;
}

let plan ~jobs ~job ~reduce =
  if jobs < 0 then invalid_arg "Exec.plan: jobs must be >= 0";
  { jobs; job; spec = None; reduce }

let plan_spec ~jobs ~job ~spec ~reduce =
  if jobs < 0 then invalid_arg "Exec.plan_spec: jobs must be >= 0";
  { jobs; job; spec = Some spec; reduce }

(* Set on every crew helper, and on the caller's own domain while it
   participates in a crew task: nested [run]s and fan-outs then stay
   sequential rather than re-entering the crew. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

(* Set on the calling domain for the duration of a [run] that splits
   work: together with [inside_pool] it identifies root-level plans,
   the ones progress reporting and the journal are scoped to. *)
let inside_run = Domain.DLS.new_key (fun () -> false)

(* --- observability --- *)

let c_plans = Obs.Metrics.counter "exec.plans"

let c_claimed = Obs.Metrics.counter "exec.jobs_claimed"

let c_completed = Obs.Metrics.counter "exec.jobs_completed"

let c_failed = Obs.Metrics.counter "exec.jobs_failed"

let c_shard_reruns = Obs.Metrics.counter "exec.shard_reruns"

(* Per-slot heartbeat gauges of fleet workers, stamped by the parent on
   each response and interned lazily. *)
let heartbeats = Array.make 64 None

let heartbeat w =
  if w < Array.length heartbeats then begin
    let g =
      match heartbeats.(w) with
      | Some g -> g
      | None ->
          let g = Obs.Metrics.gauge (Printf.sprintf "exec.worker%d.heartbeat" w) in
          heartbeats.(w) <- Some g;
          g
    in
    Obs.Metrics.set_gauge g (Obs.Clock.now ())
  end

(* Wrap a plan's job with its observability envelope. The wrapper is
   identical on the sequential and pool paths — and is applied
   worker-side by {!Worker.serve} for the procs path — so counters,
   trace coordinates and progress ticks never depend on the scheduler.
   With everything disabled [Ambient.capture] is [Inactive] and the
   wrapper costs one match plus four no-op counter calls per job. *)
let instrument ~ambient ~plan_ord ~progress job i =
  Obs.Ambient.with_job ambient ~plan:plan_ord ~job:i (fun () ->
      Obs.Metrics.incr c_claimed;
      if Obs.Trace.enabled () then Obs.Trace.emit "exec.claim" [];
      match job i with
      | v ->
          Obs.Metrics.incr c_completed;
          if Obs.Trace.enabled () then Obs.Trace.emit "exec.finish" [];
          if progress then Obs.Progress.tick ();
          v
      | exception e ->
          Obs.Metrics.incr c_failed;
          if Obs.Trace.enabled () then Obs.Trace.emit "exec.fail" [];
          raise e)

(* --- the persistent domain crew --- *)

(* One crew of helper domains per process serves both axes of
   parallelism: the jobs of a [pool w] plan ({!run}) and the tiles of a
   kernel fan-out ([Pool.run_tiles]). Helpers persist, sleeping on a
   condition variable between tasks, because spawning a domain costs
   ~100µs and a fresh domain starts with cold per-domain scratch; a
   task wakes them, they claim indices from an atomic cursor and go
   back to sleep. The caller participates too, so a task never blocks
   on a sleeping crew.

   A task of width [w] is served by the caller plus the helpers ranked
   [1 .. w - 1] (rank = spawn order); the crew grows on demand to
   [w - 1] helpers and never shrinks. Fixed ranks keep a plan of width
   [w] on at most [w] domains even after a wider fan-out grew the crew,
   and on the same domains from one task to the next.

   Determinism contract: a task [f 0 .. f (n - 1)] has exactly the
   semantics of [for i = 0 to n - 1 do f i done] provided the [f i] are
   pairwise independent (disjoint writes). Which domain runs which
   index is unobservable. *)
module Pool = struct
  let c_tile_plans = Obs.Metrics.counter "exec.tile_plans"

  let c_tiles = Obs.Metrics.counter "exec.tiles"

  (* Worker count: set explicitly by the hosting executable (--jobs),
     else taken from DYNGRAPH_JOBS like [default ()]. *)
  let requested = ref None

  let set_workers w =
    if w < 1 then invalid_arg "Exec.Pool.set_workers: workers must be >= 1";
    requested := Some (min w max_workers)

  let env_workers () = workers (default ())

  let workers () = match !requested with Some w -> w | None -> env_workers ()

  (* Minimum tiles per worker before fan-out engages: below it, the
     per-task handoff (one mutex round-trip per tile) is not worth
     waking the crew. *)
  let tiles_per_worker = 2

  type task = {
    tf : int -> unit;
    ntiles : int;
    width : int;
    cursor : int Atomic.t;
    inflight : int Atomic.t;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  (* Guards [current], [generation], [quit] and [domains]. *)
  let lock = Mutex.create ()

  let work_cond = Condition.create ()

  let done_cond = Condition.create ()

  let current : task option ref = ref None

  let generation = ref 0

  let quit = ref false

  let domains : unit Domain.t list ref = ref []

  (* Claim-and-run loop shared by helpers and the caller. [inflight] is
     raised before the failure check and the cursor claim, so the
     completion predicate (cursor exhausted or failure set, AND
     inflight zero) can never observe an index that is claimed — or
     about to be — but not yet counted: once the caller sees the task
     finished, no participant runs another index of it. The first
     exception wins [failure]; everyone stops claiming once it is set,
     so a failing job or tile drains the task instead of hanging it,
     and leaves the crew idle and immediately reusable. *)
  let drain t =
    let continue = ref true in
    while !continue do
      Atomic.incr t.inflight;
      let i = if Atomic.get t.failure = None then Atomic.fetch_and_add t.cursor 1 else t.ntiles in
      if i >= t.ntiles then continue := false
      else begin
        match t.tf i with
        | () -> ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set t.failure None (Some (e, bt)))
      end;
      Atomic.decr t.inflight
    done

  let finished t =
    (Atomic.get t.cursor >= t.ntiles || Atomic.get t.failure <> None)
    && Atomic.get t.inflight = 0

  let rec worker_loop ~rank seen =
    Mutex.lock lock;
    while !generation = seen && not !quit do
      Condition.wait work_cond lock
    done;
    let g = !generation and t = !current and q = !quit in
    Mutex.unlock lock;
    if not q then begin
      (match t with
      | Some t when rank < t.width ->
          drain t;
          (* The broadcast is taken only after this helper's final
             inflight decrement, and the caller checks the completion
             predicate under the same lock before waiting — so the
             wakeup cannot be missed. *)
          Mutex.lock lock;
          Condition.broadcast done_cond;
          Mutex.unlock lock
      | _ -> ());
      worker_loop ~rank g
    end

  (* Helpers are joined at process exit so a program that merely used
     the crew never exits with domains blocked in [Condition.wait]. *)
  let shutdown () =
    Mutex.lock lock;
    quit := true;
    Condition.broadcast work_cond;
    Mutex.unlock lock;
    List.iter Domain.join !domains;
    domains := []

  (* Run [tf 0 .. tf (ntiles - 1)] on the caller plus helpers
     [1 .. width - 1], growing the crew first if it is smaller. Called
     with [width > 1] and never from inside the crew. *)
  let run_task ~width ntiles tf =
    let t =
      {
        tf;
        ntiles;
        width;
        cursor = Atomic.make 0;
        inflight = Atomic.make 0;
        failure = Atomic.make None;
      }
    in
    Mutex.protect lock (fun () ->
        let have = List.length !domains in
        if have = 0 then at_exit shutdown;
        for rank = have + 1 to width - 1 do
          let g = !generation in
          domains :=
            Domain.spawn (fun () ->
                Domain.DLS.set inside_pool true;
                worker_loop ~rank g)
            :: !domains
        done;
        current := Some t;
        incr generation;
        Condition.broadcast work_cond);
    (* Participate from the calling domain, marked [inside_pool] so
       anything the task calls degrades to sequential. *)
    let saved = Domain.DLS.get inside_pool in
    Domain.DLS.set inside_pool true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside_pool saved) (fun () -> drain t);
    Mutex.protect lock (fun () ->
        while not (finished t) do
          Condition.wait done_cond lock
        done;
        (* Another thread of this domain may have published since. *)
        match !current with Some c when c == t -> current := None | _ -> ());
    match Atomic.get t.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

  let run_tiles ntiles tf =
    if ntiles < 0 then invalid_arg "Exec.Pool.run_tiles: ntiles must be >= 0";
    (* Counters are charged before the engage decision, so metric
       totals never depend on worker count or calling context. *)
    Obs.Metrics.incr c_tile_plans;
    Obs.Metrics.add c_tiles ntiles;
    let w = workers () in
    if w > 1 && ntiles >= tiles_per_worker * w && not (Domain.DLS.get inside_pool) then
      run_task ~width:w ntiles tf
    else
      for i = 0 to ntiles - 1 do
        tf i
      done
end

(* --- the worker side of the fleet protocol --- *)

(* Test-only fault injection, driven by environment variables of the
   form VAR="SPECID:MARKER_PATH". The first time a worker is asked to
   run SPECID and MARKER_PATH does not exist, it creates the marker and
   then crashes (DYNGRAPH_FLEET_CRASH, exit 70 without a response) or
   wedges (DYNGRAPH_FLEET_HANG, sleeps an hour). The marker makes the
   fault one-shot, so the re-run of the shard on a fresh worker
   succeeds — exactly the failure-isolation path the fleet smoke and
   unit tests need to drive deterministically. *)
let fault_hook var =
  match Sys.getenv_opt var with
  | None -> None
  | Some s -> (
      match String.index_opt s ':' with
      | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> None)

let trip_fault hook id action =
  match hook with
  | Some (hid, marker) when hid = id && not (Sys.file_exists marker) ->
      let oc = open_out marker in
      close_out oc;
      action ()
  | _ -> ()

module Worker = struct
  let serve ?(forward_progress = false) ~dispatch () =
    in_worker_flag := true;
    let proto_in = Unix.dup Unix.stdin in
    let proto_out = Unix.dup Unix.stdout in
    (* Re-point fd 1 at stderr so a stray [print_string] anywhere in the
       experiment code cannot corrupt the framed protocol. *)
    Unix.dup2 Unix.stderr Unix.stdout;
    (* Workers never write progress to the (shared) stderr — concurrent
       shards would tear each other's \r lines. Either progress is off
       entirely, or the parent asked for it to be forwarded as 'P'
       frames over the pipe so it can render one coherent stream. *)
    let current_job = ref 0 in
    if forward_progress then begin
      Obs.Progress.set_renderer
        (Some
           (fun (u : Obs.Progress.update) ->
             let b = Buffer.create 32 in
             Buffer.add_char b 'P';
             Spec.Buf.add_int b !current_job;
             Spec.Buf.add_int b u.Obs.Progress.completed;
             Spec.Buf.add_int b u.Obs.Progress.total;
             try write_frame proto_out (Buffer.contents b)
             with Unix.Unix_error _ | Fleet_failure _ -> ()));
      Obs.Progress.enable ()
    end
    else Obs.Progress.disable ();
    let crash = fault_hook "DYNGRAPH_FLEET_CRASH" in
    let hang = fault_hook "DYNGRAPH_FLEET_HANG" in
    let continue = ref true in
    while !continue do
      match read_frame proto_in with
      | None -> continue := false
      | Some req -> (
          let r = Spec.Buf.reader req in
          match Spec.Buf.char r with
          | 'Q' -> continue := false
          | 'J' ->
              let job = Spec.Buf.int r in
              let plan_ord = Spec.Buf.int r in
              let np = Spec.Buf.int r in
              let path = Array.make (max np 0) 0 in
              for i = 0 to np - 1 do
                path.(i) <- Spec.Buf.int r
              done;
              let id = Spec.Buf.string r in
              let payload = Spec.Buf.string r in
              current_job := job;
              trip_fault crash id (fun () -> Stdlib.exit 70);
              trip_fault hang id (fun () -> Unix.sleep 3600);
              (* Per-job observability window: counters and trace ring
                 are cleared so the response carries exactly this job's
                 deltas for the parent to merge. *)
              Obs.Metrics.reset ();
              if Obs.Trace.enabled () then Obs.Trace.clear ();
              let ambient : Obs.Ambient.t =
                if Obs.Trace.enabled () then Active { sink = None; path } else Inactive
              in
              let response =
                match
                  instrument ~ambient ~plan_ord ~progress:false
                    (fun _ -> dispatch ~id ~payload)
                    job
                with
                | result ->
                    let b = Buffer.create (String.length result + 256) in
                    Buffer.add_char b 'R';
                    Spec.Buf.add_int b job;
                    Spec.Buf.add_string b result;
                    Spec.Buf.add_pairs b (Obs.Metrics.snapshot ());
                    let evs = if Obs.Trace.enabled () then Obs.Trace.events () else [] in
                    Spec.Buf.add_int b (Obs.Trace.dropped_events ());
                    Spec.Buf.add_int b (List.length evs);
                    List.iter (add_event b) evs;
                    Buffer.contents b
                | exception e ->
                    let bt = Printexc.get_backtrace () in
                    let b = Buffer.create 256 in
                    Buffer.add_char b 'E';
                    Spec.Buf.add_int b job;
                    Spec.Buf.add_string b
                      (Printexc.to_string e ^ if bt = "" then "" else "\n" ^ bt);
                    Buffer.contents b
              in
              write_frame proto_out response
          | _ -> Stdlib.exit 71)
    done
end

(* --- the parent side: a crash-isolated worker fleet --- *)

(* Hang-detection deadlines live on the monotonic clock
   ([Obs.Clock.monotonic]), never the wall clock: an NTP step or a
   suspend/resume must neither falsely SIGKILL a healthy shard nor let a
   wedged one run forever. A deadline is an absolute monotonic instant;
   [none] ([infinity]) means unarmed. *)
module Deadline = struct
  type t = float

  let none = infinity

  let arm seconds = Obs.Clock.monotonic () +. seconds

  let armed d = d < infinity

  let expired d = armed d && Obs.Clock.monotonic () >= d

  let seconds_left d = if armed d then d -. Obs.Clock.monotonic () else infinity
end

type worker_proc = {
  pid : int;
  req_fd : Unix.file_descr;
  resp_fd : Unix.file_descr;
  slot : int;
  mutable inflight : int option;
  mutable deadline : float;
}

let max_attempts = 3

let run_procs w ~cmd ~(specs : _ Spec.t array) ~plan_ord ~path ~progress ~journal_path =
  let n = Array.length specs in
  let results = Array.make n None in
  let completed = ref 0 in
  (* Replay one successful response payload: merge its counter deltas
     and trace events into this process, decode the result into its
     slot. Used both for live responses and for journal replay, so a
     resumed run reaches the same final state as an uninterrupted one. *)
  let handle_success job raw =
    let r = Spec.Buf.reader raw in
    (match Spec.Buf.char r with
    | 'R' -> ()
    | _ -> raise (Fleet_failure "corrupt response payload"));
    let j = Spec.Buf.int r in
    if j <> job then raise (Fleet_failure "response job mismatch");
    let result = Spec.Buf.string r in
    let metrics = Spec.Buf.pairs r in
    let dropped = Spec.Buf.int r in
    let n_ev = Spec.Buf.int r in
    let rec events k acc = if k = 0 then List.rev acc else events (k - 1) (read_event r :: acc) in
    let evs = events n_ev [] in
    Obs.Metrics.absorb metrics;
    if Obs.Trace.enabled () then Obs.Trace.absorb ~dropped evs;
    results.(job) <- Some (specs.(job).Spec.decode result);
    incr completed;
    if progress then Obs.Progress.tick ()
  in
  (* Identity of the plan: resuming a journal only makes sense against
     byte-identical specs (same experiments, seed, scale, render). *)
  let digest =
    Digest.to_hex
      (Digest.string
         (string_of_int n ^ "\x00"
         ^ String.concat "\x00"
             (Array.to_list (Array.map (fun s -> s.Spec.id ^ "\x01" ^ s.Spec.payload) specs))))
  in
  let journal =
    match journal_path with
    | None -> None
    | Some path ->
        let t, entries = Journal.open_ ~path ~jobs:n ~digest in
        List.iter
          (fun (e : Journal.entry) ->
            if
              e.job >= 0 && e.job < n
              && e.spec_id = specs.(e.job).Spec.id
              && results.(e.job) = None
            then try handle_success e.job e.data with Spec.Buf.Corrupt _ | Fleet_failure _ -> ())
          entries;
        Some t
  in
  let pending = Queue.create () in
  for i = 0 to n - 1 do
    if results.(i) = None then Queue.add i pending
  done;
  let attempts = Array.make n 0 in
  let timeout = worker_timeout () in
  let live : worker_proc list ref = ref [] in
  let slot_counter = ref 0 in
  let spawn () =
    let req_r, req_w = Unix.pipe () in
    let resp_r, resp_w = Unix.pipe () in
    Unix.set_close_on_exec req_w;
    Unix.set_close_on_exec resp_r;
    let pid = Unix.create_process cmd.(0) cmd req_r resp_w Unix.stderr in
    Unix.close req_r;
    Unix.close resp_w;
    let wk =
      { pid; req_fd = req_w; resp_fd = resp_r; slot = !slot_counter; inflight = None;
        deadline = Deadline.none }
    in
    incr slot_counter;
    live := wk :: !live
  in
  let reap wk =
    live := List.filter (fun x -> x != wk) !live;
    (try Unix.close wk.req_fd with Unix.Unix_error _ -> ());
    (try Unix.close wk.resp_fd with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] wk.pid) with Unix.Unix_error _ -> ()
  in
  let kill_reap wk =
    (try Unix.kill wk.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap wk
  in
  (* A worker died (or wedged past its deadline) while owning a shard:
     only that shard is requeued — completed shards are already merged
     (and journaled), and shards owned by other workers are untouched. *)
  let crash wk reason =
    (match wk.inflight with
    | Some job ->
        attempts.(job) <- attempts.(job) + 1;
        Obs.Metrics.incr c_shard_reruns;
        if attempts.(job) >= max_attempts then begin
          kill_reap wk;
          raise
            (Fleet_failure
               (Printf.sprintf "shard %d (%s) %s %d times; giving up" job specs.(job).Spec.id
                  reason attempts.(job)))
        end;
        Queue.add job pending
    | None -> ());
    kill_reap wk
  in
  let send wk job =
    let s = specs.(job) in
    let b = Buffer.create (String.length s.Spec.payload + String.length s.Spec.id + 64) in
    Buffer.add_char b 'J';
    Spec.Buf.add_int b job;
    Spec.Buf.add_int b plan_ord;
    Spec.Buf.add_int b (Array.length path);
    Array.iter (Spec.Buf.add_int b) path;
    Spec.Buf.add_string b s.Spec.id;
    Spec.Buf.add_string b s.Spec.payload;
    match write_frame wk.req_fd (Buffer.contents b) with
    | () ->
        wk.inflight <- Some job;
        (match timeout with
        | Some t -> wk.deadline <- Deadline.arm t
        | None -> wk.deadline <- Deadline.none)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
        (* Died before it ever saw the shard: not the shard's fault, so
           no attempt is charged — requeue and let the top-up respawn. *)
        Queue.add job pending;
        kill_reap wk
  in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun wk -> (try Unix.kill wk.pid Sys.sigkill with Unix.Unix_error _ -> ())) !live;
      List.iter reap (List.filter (fun _ -> true) !live);
      live := [];
      (match journal with Some t -> Journal.close t | None -> ());
      Sys.set_signal Sys.sigpipe old_sigpipe)
    (fun () ->
      while !completed < n do
        (* Top up the fleet and hand shards to idle workers. *)
        let idle () = List.length (List.filter (fun wk -> wk.inflight = None) !live) in
        while List.length !live < min w n && Queue.length pending > idle () do
          spawn ()
        done;
        List.iter
          (fun wk ->
            if wk.inflight = None then
              match Queue.take_opt pending with Some job -> send wk job | None -> ())
          !live;
        if !completed < n then begin
          let fds = List.map (fun wk -> wk.resp_fd) !live in
          if fds = [] then raise (Fleet_failure "fleet drained with shards incomplete");
          let next_wait =
            List.fold_left
              (fun acc wk ->
                if wk.inflight <> None then min acc (Deadline.seconds_left wk.deadline) else acc)
              infinity !live
          in
          let tmo = if next_wait = infinity then -1. else max 0.01 next_wait in
          let ready, _, _ = retry_intr (fun () -> Unix.select fds [] [] tmo) in
          List.iter
            (fun fd ->
              match List.find_opt (fun wk -> wk.resp_fd = fd) !live with
              | None -> ()
              | Some wk -> (
                  match
                    try read_frame wk.resp_fd with Unix.Unix_error _ -> None
                  with
                  | None ->
                      if wk.inflight <> None then crash wk "crashed" else reap wk
                  | Some resp -> (
                      let r = Spec.Buf.reader resp in
                      match Spec.Buf.char r with
                      | 'R' ->
                          let job = Spec.Buf.int r in
                          if Obs.Metrics.enabled () then heartbeat wk.slot;
                          wk.inflight <- None;
                          wk.deadline <- Deadline.none;
                          (match journal with
                          | Some t ->
                              Journal.append t ~job ~spec_id:specs.(job).Spec.id ~data:resp
                          | None -> ());
                          handle_success job resp
                      | 'P' ->
                          (* A worker forwarding its shard's own progress
                             ticks. The shard is demonstrably alive, so
                             its hang-detection deadline restarts. *)
                          let job = Spec.Buf.int r in
                          let c = Spec.Buf.int r in
                          let t = Spec.Buf.int r in
                          (match timeout with
                          | Some secs when wk.inflight <> None ->
                              wk.deadline <- Deadline.arm secs
                          | _ -> ());
                          if progress && job >= 0 && job < n then
                            Obs.Progress.sub ~label:specs.(job).Spec.id ~completed:c ~total:t
                      | 'E' ->
                          let _job = Spec.Buf.int r in
                          let msg = Spec.Buf.string r in
                          wk.inflight <- None;
                          raise (Fleet_failure ("worker job raised: " ^ msg))
                      | _ -> raise (Fleet_failure "malformed response frame"))))
            ready;
          List.iter
            (fun wk ->
              if wk.inflight <> None && Deadline.expired wk.deadline then crash wk "timed out")
            (List.filter (fun _ -> true) !live)
        end
      done;
      (* Graceful shutdown: close the request side, collect exits. *)
      List.iter
        (fun wk ->
          (try write_frame wk.req_fd "Q" with Unix.Unix_error _ | Fleet_failure _ -> ()))
        !live;
      List.iter reap (List.filter (fun _ -> true) !live);
      live := []);
  Array.map (function Some v -> v | None -> raise (Fleet_failure "shard lost")) results

(* Outside a worker, a [Procs _] plan always goes to the fleet. The
   decision reads only process-wide state, never the domain-local root
   flag, so it is the same on every thread and domain that calls [run]
   and at every nesting depth. *)
let fleet_spec s p =
  match s with
  | Procs _ when not !in_worker_flag -> (
      match (p.spec, !worker_command_ref) with
      | None, _ -> invalid_arg "Exec.run: a procs plan needs a job spec (Exec.plan_spec)"
      | _, None -> invalid_arg "Exec.run: a procs plan needs Exec.set_worker_command"
      | Some spec, Some cmd -> Some (spec, cmd))
  | _ -> None

let run s p =
  Obs.Metrics.incr c_plans;
  let fleet = fleet_spec s p in
  (* Progress (and the journal) belong to the outermost plan that splits
     work. A one-job in-process plan — a single experiment — leaves
     them to the plans its job runs. *)
  let splits = p.jobs > 1 || fleet <> None in
  let saved_inside = Domain.DLS.get inside_run in
  let root = splits && (not saved_inside) && not (Domain.DLS.get inside_pool) in
  let progress = root && Obs.Progress.enabled () in
  if progress then Obs.Progress.begin_plan ~jobs:p.jobs;
  let ambient = Obs.Ambient.capture () in
  let plan_ord = Obs.Ambient.next_plan () in
  if splits then Domain.DLS.set inside_run true;
  let results =
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set inside_run saved_inside;
        if progress then Obs.Progress.end_plan ())
      (fun () ->
        match fleet with
        | Some (spec, cmd) ->
            let path = (Obs.Ambient.frame ()).Obs.Ambient.path in
            let journal_path = if root then !journal_ref else None in
            run_procs (workers s) ~cmd ~specs:(Array.init p.jobs spec) ~plan_ord ~path ~progress
              ~journal_path
        | None -> (
            let q = { p with job = instrument ~ambient ~plan_ord ~progress p.job } in
            match s with
            | Pool w | Procs w when q.jobs > 1 && not (Domain.DLS.get inside_pool) ->
                (* One crew task; job [i] fills slot [i], and the task's
                   completion handshake (atomics plus the crew lock)
                   publishes every slot to the caller. *)
                let results = Array.make q.jobs None in
                Pool.run_task ~width:w q.jobs (fun i -> results.(i) <- Some (q.job i));
                Array.map (function Some v -> v | None -> assert false) results
            | _ -> Array.init q.jobs q.job))
  in
  p.reduce results

let map s ~jobs f = run s (plan ~jobs ~job:f ~reduce:Fun.id)
