(* The four benchmark workloads and the measurements they share. Each
   runs its operation repeatedly for a time window, checks what the
   program produced, and returns its timings plus, in a traced run,
   the per-layer metrics taken from spans recorded around calls into
   each layer's public functions. README.md says why each workload
   was chosen and which end-to-end metric each layer metric moves. *)

module Span = Perfbench.Span
module Timed = Perfbench.Timed

let now = Obs.Clock.monotonic_raw

let out_dir = Filename.concat "perfbench" "out"

let pool_workers = 2

type result = {
  walls : float array;  (** seconds per operation *)
  elapsed : float;  (** window start to the last completion *)
  cpu : float;  (** CPU seconds of the working process over the window *)
  hwm_kb : int;  (** peak resident set of the working process, kB *)
  failed : int;
  correct : bool;
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
}

(* --- measurement helpers --- *)

let median xs = if Array.length xs = 0 then 0. else Stats.Quantile.median xs

let quantile xs q = if Array.length xs = 0 then 0. else Stats.Quantile.quantile xs q

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process in kB: the kernel's VmHWM, which
   unlike the GC's heap figures also counts off-heap storage. *)
let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d" Fun.id
        | Some _ -> find ()
      in
      find ())

(* Work counts of one reference operation: the Obs counters the
   library charges while metrics are on, plus this domain's GC words.
   For a deterministic operation the Obs counters repeat exactly. *)
let counted f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  let counters = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  ( r,
    List.map (fun (k, v) -> (k, float_of_int v)) counters
    @ [
        ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
        ("gc.major_words", g1.Gc.major_words -. g0.Gc.major_words);
        ("gc.top_heap_words", float_of_int g1.Gc.top_heap_words);
      ] )

(* Run [op k] for k = 0, 1, ... until [seconds] have passed, and at
   least twice. Returns each operation's wall time, in order, the time
   from the window's start to the last completion, and the peak RSS
   after the first operation. That peak is one operation's, as a user
   running it once sees it; the peak after the whole window grows in
   random steps with the number of operations the window holds. *)
let window ~seconds op =
  let t_start = now () in
  let walls = ref [] and k = ref 0 and hwm_kb = ref 0 in
  while !k < 2 || now () -. t_start < seconds do
    let t0 = now () in
    op !k;
    walls := (now () -. t0) :: !walls;
    if !k = 0 then hwm_kb := vm_hwm_kb ();
    incr k
  done;
  (Array.of_list (List.rev !walls), now () -. t_start, !hwm_kb)

(* A traced run of the sweep and the floods runs each input twice, once
   traced and once not, so the median ratio of the pairs' times is the
   tracing overhead on the same inputs. The second run of an input is
   warmer, so the traced one alternates between going second and first.
   The first traced operation (number 1) is the reference whose work is
   counted. *)
let traced_op ~trace k = trace && (k + (k / 2)) mod 2 = 1

let input ~trace k = if trace then k / 2 else k

let paired_overhead walls =
  median
    (Array.init (Array.length walls / 2) (fun j ->
         let traced = if j mod 2 = 0 then (2 * j) + 1 else 2 * j in
         walls.(traced) /. walls.((4 * j) + 1 - traced)))

(* A child of this program, with its stdin and stdout on pipes. The
   serve daemon stops when its stdin closes, so it cannot outlive this
   process. *)
type child = { pid : int; from_child : in_channel; to_child : out_channel }

(* Start [argv] and wait for it to print "ready". *)
let spawn_ready argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv in_r out_w Unix.stderr in
  Unix.close out_w;
  Unix.close in_r;
  let c =
    { pid; from_child = Unix.in_channel_of_descr out_r; to_child = Unix.out_channel_of_descr in_w }
  in
  if In_channel.input_line c.from_child = Some "ready" then c
  else begin
    close_out_noerr c.to_child;
    close_in_noerr c.from_child;
    ignore (Unix.waitpid [] pid);
    failwith (String.concat " " (Array.to_list argv) ^ ": did not become ready")
  end

(* Close the child's stdin, read what it prints on the way out, and
   wait for it to end. *)
let reap c =
  close_out_noerr c.to_child;
  let last = In_channel.input_all c.from_child in
  close_in_noerr c.from_child;
  ignore (Unix.waitpid [] c.pid);
  last

(* [self_time_of spans name]: the summed self time of every span called
   [name]. *)
let self_time_of spans =
  let self = Span.self_times spans in
  fun name ->
    let total = ref 0. in
    Array.iteri (fun i (s : Span.t) -> if s.name = name then total := !total +. self.(i)) spans;
    !total

let count_named spans name =
  Array.fold_left (fun n (s : Span.t) -> if s.name = name then n + 1 else n) 0 spans

(* --- sweep: every experiment at quick scale on a 2-domain pool --- *)

(* E18 is the sweep's longest experiment. Its layers, timed from
   outside on E18's quick-scale inputs (m in {4, 6}, n = 48, r = 1.5,
   5 trials, and Runner.flood's trials + 1 model builds per m): the
   exact eta, the spectral mixing bound and the per-trial model build.
   The chain itself builds in under a millisecond and each flood in
   about 2 ms, so they are not timed. *)
let e18_layers ~seed rec_ =
  let timed name req f =
    let t0 = now () in
    let r = f () in
    ignore (Span.add rec_ { name; start = t0; stop = now (); parent = -1; req });
    r
  in
  let trials = Simulate.Runner.trials Simulate.Runner.Quick and n = 48 in
  let rng = Prng.Rng.of_seed seed in
  List.iter
    (fun m ->
      let dw = Mobility.Discrete_waypoint.build ~m ~r:1.5 in
      timed "mobility.dw_exact" m (fun () ->
          ignore
            ( Mobility.Discrete_waypoint.p_nm dw,
              Mobility.Discrete_waypoint.eta dw,
              Mobility.Discrete_waypoint.corollary4_eta_bound dw ));
      timed "markov.spectral" m (fun () ->
          ignore (Markov.Spectral.mixing_time_upper (Mobility.Discrete_waypoint.chain dw)));
      for i = 0 to trials do
        let d = timed "mobility.dw_dynamic" m (fun () -> Mobility.Discrete_waypoint.dynamic ~n dw) in
        if i > 0 then ignore (Core.Flooding.time ~rng:(Prng.Rng.substream rng i) ~source:0 d)
      done)
    [ 4; 6 ]

let sweep ~seed ~seconds ~trace rec_ =
  Exec.Pool.set_workers pool_workers;
  let sched = Exec.pool pool_workers in
  let rng = Prng.Rng.of_seed seed in
  let run ?(sched = sched) k =
    Simulate.Registry.run_each ~sched ~clock:now
      ~rng:(Prng.Rng.substream rng (input ~trace k))
      ~scale:Simulate.Runner.Quick ()
  in
  let first = ref [] and counts = ref [] in
  let seconds_by_id = Hashtbl.create 32 in
  let op k =
    let traced = traced_op ~trace k in
    if traced then Obs.Trace.enable ();
    let t0 = now () in
    let outs =
      if traced && k = 1 then begin
        let outs, c = counted (fun () -> run k) in
        counts := c;
        outs
      end
      else run k
    in
    let t1 = now () in
    if k = 0 then first := outs;
    List.iter
      (fun (out : Simulate.Registry.outcome) -> Hashtbl.add seconds_by_id out.experiment.id out.seconds)
      outs;
    if traced then begin
      (* Experiment spans come from the registry's own exp.start /
         exp.end events, stamped on this clock (see main.ml). *)
      let root = Span.add rec_ { name = "sweep"; start = t0; stop = t1; parent = -1; req = k } in
      let starts = Hashtbl.create 32 in
      List.iter
        (fun (ev : Obs.Trace.event) ->
          match (ev.name, List.assoc_opt "id" ev.fields) with
          | "exp.start", Some (Obs.Trace.Str id) -> Hashtbl.replace starts id ev.wall
          | "exp.end", Some (Obs.Trace.Str id) ->
              let start = Hashtbl.find starts id in
              ignore (Span.add rec_ { name = "registry." ^ id; start; stop = ev.wall; parent = root; req = k })
          | _ -> ())
        (Obs.Trace.events ());
      Obs.Trace.disable ();
      Obs.Trace.clear ()
    end
  in
  let cpu0 = cpu_seconds () in
  let walls, elapsed, hwm_kb = window ~seconds op in
  let cpu = cpu_seconds () -. cpu0 in
  (* Schedulers change wall time, never results: the first sweep must
     render byte-identically when re-run on one domain. *)
  let reference = run ~sched:Exec.sequential 0 in
  let same (a : Simulate.Registry.outcome) (b : Simulate.Registry.outcome) =
    a.experiment.id = b.experiment.id && a.output = b.output && a.ok = b.ok
  in
  let correct = List.length !first = List.length reference && List.for_all2 same !first reference in
  let e18 =
    if not trace then []
    else begin
      e18_layers ~seed rec_;
      let self = self_time_of (Span.spans rec_) in
      List.map
        (fun name -> (name ^ "_ms", 1000. *. self name))
        [ "mobility.dw_dynamic"; "mobility.dw_exact"; "markov.spectral" ]
    end
  in
  {
    walls;
    elapsed;
    cpu;
    hwm_kb;
    failed = (if correct then 0 else 1);
    correct;
    layers =
      List.map
        (fun (e : Simulate.Registry.experiment) ->
          ( Printf.sprintf "registry.%s_s" e.id,
            median (Array.of_list (Hashtbl.find_all seconds_by_id e.id)) ))
        Simulate.Registry.all
      @ [
          ("exec.utilization", cpu /. (elapsed *. float_of_int pool_workers));
          ("trace.overhead", paired_overhead walls);
        ]
      @ e18 @ !counts;
  }

(* --- floods: repeated Flooding.time from node 0 on one large model --- *)

let edge_meg_n = 1 lsl 17

let waypoint_n = 1 lsl 15

let make_model = function
  | "flood-edge-meg" ->
      Edge_meg.Classic.make ~n:edge_meg_n ~p:(1. /. float_of_int edge_meg_n) ~q:0.125 ()
  | "flood-waypoint" ->
      Mobility.Waypoint.dynamic ~init:Steady ~n:waypoint_n
        ~l:(sqrt (float_of_int waypoint_n))
        ~r:1.5 ~v_min:1. ~v_max:1.25 ()
  | w -> invalid_arg ("make_model: " ^ w)

(* A flood's result must describe a completed broadcast from node 0:
   the trajectory grows from 1 to n and the arrival times are exactly
   its increments. *)
let consistent n (r : Core.Flooding.result) =
  match r.time with
  | None -> false
  | Some t ->
      let traj = r.trajectory in
      let arrived = Array.make (t + 1) 0 in
      Array.iter (fun a -> if a >= 0 && a <= t then arrived.(a) <- arrived.(a) + 1) r.arrivals;
      Array.length traj = t + 1
      && traj.(0) = 1
      && traj.(t) = n
      && r.arrivals.(0) = 0
      && Array.for_all (fun a -> a >= 0) r.arrivals
      && List.for_all
           (fun i -> arrived.(i) = if i = 0 then 1 else traj.(i) - traj.(i - 1))
           (List.init (t + 1) Fun.id)

let flood workload ~seed ~seconds ~trace rec_ =
  Exec.Pool.set_workers pool_workers;
  let inner = make_model workload in
  let parent = ref (-1) and req = ref (-1) in
  let timed =
    Timed.wrap ~clock:now inner ~on_call:(fun name start stop ->
        ignore (Span.add rec_ { name; start; stop; parent = !parent; req = !req }))
  in
  (* An untraced run floods the bare model. A traced run always goes
     through the wrapper, recording on odd floods only, so both sides of
     its overhead ratio share one model and one cached adjacency. *)
  let model = if trace then Timed.model timed else inner in
  let rng = Prng.Rng.of_seed seed in
  let run k () = Core.Flooding.time ~rng:(Prng.Rng.substream rng (input ~trace k)) ~source:0 model in
  let first = ref None and capped = ref 0 and counts = ref [] in
  let op k =
    let time =
      if traced_op ~trace k then begin
        Timed.set_enabled timed true;
        req := k;
        parent := Span.start rec_ ~name:"flood" ~parent:(-1) ~req:k (now ());
        let time =
          if k = 1 then begin
            let time, c = counted (run k) in
            counts :=
              c
              @ [
                  ("dynamic.rebuilds", float_of_int (Timed.rebuilds timed));
                  ("dynamic.deltas_declined", float_of_int (Timed.deltas_declined timed));
                ];
            time
          end
          else run k ()
        in
        Span.finish rec_ !parent (now ());
        Timed.set_enabled timed false;
        time
      end
      else run k ()
    in
    if k = 0 then first := time;
    if time = None then incr capped
  in
  let cpu0 = cpu_seconds () in
  let walls, elapsed, hwm_kb = window ~seconds op in
  let cpu = cpu_seconds () -. cpu0 in
  (* Re-run the first flood on one worker and the heap adjacency: the
     same seed must give the same flooding time, through a consistent
     trajectory. *)
  Exec.Pool.set_workers 1;
  let reference = Core.Flooding.run ~storage:`Heap ~rng:(Prng.Rng.substream rng 0) ~source:0 inner in
  let correct = !first <> None && reference.time = !first && consistent (Core.Dynamic.n inner) reference in
  let spans = Span.spans rec_ in
  let self = self_time_of spans in
  let floods = float_of_int (max 1 (count_named spans "flood")) in
  let per_flood name = 1000. *. self name /. floods in
  {
    walls;
    elapsed;
    cpu;
    hwm_kb;
    failed = !capped + (if correct then 0 else 1);
    correct;
    layers =
      [
        ("exec.utilization", cpu /. (elapsed *. float_of_int pool_workers));
        ("trace.overhead", paired_overhead walls);
        ("dynamic.reset_ms", per_flood "dynamic.reset");
        ("dynamic.step_ms", per_flood "dynamic.step");
        ("dynamic.deltas_ms", per_flood "dynamic.deltas");
        ("dynamic.iter_edges_ms", per_flood "dynamic.iter_edges");
        ("dynamic.fill_edges_ms", per_flood "dynamic.fill_edges");
        ("flooding.self_ms", per_flood "flood");
      ]
      @ !counts;
  }

(* --- serve-mixed: two closed-loop clients against a daemon process --- *)

(* Quick-scale requests for edge-MEG flooding (E1), node-MEG (E4),
   random paths (E8), push (E11), phases (E12) and gossip (E13). The
   weight is each id's share of a client's fresh requests. E1 and E11
   take 50-60 ms, the others 2-15 ms. At equal weights the latency
   median fell in the 20-50 ms gap between those two modes, where a
   shift of a few requests moves it by tens of percent; with the heavy
   ids counting double it sits inside the heavy mode. *)
let serve_mix = [ ("E1", 2); ("E4", 1); ("E8", 1); ("E11", 2); ("E12", 1); ("E13", 1) ]

let serve_clients = 2

(* Every fifth request repeats one of the client's own sixteen latest
   fresh keys, so cache reads sit beside fresh computation. *)
let repeat_every = 5

let repeat_window = 16

(* Fresh keys per client re-computed in-process after the window. *)
let serve_checked = 12

let serve_config socket_path =
  {
    Serve.Server.socket_path;
    tcp_port = None;
    jobs = pool_workers;
    executors = 1;
    procs = 0;
    cache_capacity = 64;
  }

(* The daemon child, hosted as `dyngraph serve` hosts it (wall clock,
   metrics on). It prints "ready" once bound, stops when its stdin
   closes, and prints its CPU seconds and peak RSS on the way out. *)
let serve_daemon socket_path =
  Obs.Clock.set Unix.gettimeofday;
  Obs.Metrics.enable ();
  let t = Serve.Server.create (serve_config socket_path) in
  ignore
    (Thread.create
       (fun () ->
         ignore (In_channel.input_all stdin);
         Serve.Server.request_stop t)
       ());
  print_endline "ready";
  Serve.Server.wait t;
  Printf.printf "stats %.6f %d\n%!" (cpu_seconds ()) (vm_hwm_kb ())

let write_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length data do
    off := !off + Unix.write fd data !off (Bytes.length data - !off)
  done

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  (fd, Unix.in_channel_of_descr fd)

(* Connect to a server, send a ping and wait for its pong. *)
let ping socket =
  let fd, ic = connect socket in
  write_line fd (Serve.Protocol.encode_request ~req:0 Serve.Protocol.Ping);
  let pong = input_line ic in
  close_in ic;
  match Serve.Protocol.decode_msg pong with
  | Ok (Serve.Protocol.Pong _) -> ()
  | _ -> failwith ("serve: expected a pong, got " ^ pong)

(* Spawn a daemon and wait until it answers a ping. *)
let start_daemon socket =
  let d = spawn_ready [| Sys.executable_name; "--serve-daemon"; socket |] in
  (try ping socket
   with e ->
     ignore (reap d);
     raise e);
  d

(* Stop the daemon and return its (CPU s, VmHWM kB). *)
let stop_daemon d =
  try Scanf.sscanf (reap d) "stats %f %d" (fun c h -> Some (c, h)) with _ -> None

type client = {
  mutable latencies : float list;  (* every answered request, seconds *)
  mutable recording : float;  (* seconds spent recording spans *)
  mutable executes : (string * float) list;  (* computed (not cached) results: id, server seconds *)
  mutable overheads : float list;  (* latency minus server execute seconds *)
  mutable decodes : float list;  (* client-side decode of the result frame *)
  mutable cached : int;
  mutable progress : int;
  mutable errors : int;
  mutable last_done : float;
  outputs : (string * int, string) Hashtbl.t;  (* first output per key *)
  mutable fresh : (string * int) list;  (* fresh keys, newest first *)
}

let run_client ~seed ~trace rec_ ~socket ~deadline c =
  let st =
    {
      latencies = [];
      recording = 0.;
      executes = [];
      overheads = [];
      decodes = [];
      cached = 0;
      progress = 0;
      errors = 0;
      last_done = now ();
      outputs = Hashtbl.create 1024;
      fresh = [];
    }
  in
  let rng = Prng.Rng.substream (Prng.Rng.of_seed seed) (100 + c) in
  let block = Array.of_list (List.concat_map (fun (id, w) -> List.init w (fun _ -> id)) serve_mix) in
  let next = ref (Array.length block) in
  let fresh_key () =
    if !next = Array.length block then begin
      Prng.Rng.shuffle_in_place rng block;
      next := 0
    end;
    let key = (block.(!next), Prng.Rng.int rng 1_000_000_000) in
    incr next;
    st.fresh <- key :: st.fresh;
    key
  in
  let fd, ic = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let k = ref 0 in
      while now () < deadline do
        let ((id, seed) as key) =
          if !k mod repeat_every = repeat_every - 1 && st.fresh <> [] then
            Prng.Rng.choice rng (Array.of_list (List.filteri (fun i _ -> i < repeat_window) st.fresh))
          else fresh_key ()
        in
        let req = (c * 1_000_000) + !k in
        let t0 = now () in
        write_line fd
          (Serve.Protocol.encode_request ~req
             (Serve.Protocol.Run
                { id; seed; scale = Simulate.Runner.Quick; render = Simulate.Registry.Full }));
        let rec await () =
          let line = input_line ic in
          let d0 = now () in
          let msg = Serve.Protocol.decode_msg line in
          let d1 = now () in
          match msg with
          | Ok (Serve.Protocol.Progress p) when p.req = req ->
              st.progress <- st.progress + 1;
              await ()
          | Ok (Serve.Protocol.Result r) when r.req = req -> Ok (r.output, r.seconds, r.cached, d0, d1)
          | Ok (Serve.Protocol.Error e) when e.req = req -> Error e.message
          | Ok _ -> await ()
          | Error m -> Error ("undecodable frame: " ^ m)
        in
        let reply = await () in
        let t1 = now () in
        let latency = t1 -. t0 in
        st.latencies <- latency :: st.latencies;
        st.last_done <- t1;
        (match reply with
        | Error m ->
            Printf.eprintf "perfbench: %s seed %d: %s\n%!" id seed m;
            st.errors <- st.errors + 1
        | Ok (output, execute, cached, d0, d1) ->
            st.decodes <- (d1 -. d0) :: st.decodes;
            st.overheads <- (latency -. execute) :: st.overheads;
            if cached then st.cached <- st.cached + 1
            else st.executes <- (id, execute) :: st.executes;
            (* A repeated key must get the bytes it got the first time. *)
            (match Hashtbl.find_opt st.outputs key with
            | Some first when first <> output -> st.errors <- st.errors + 1
            | Some _ -> ()
            | None -> Hashtbl.add st.outputs key output);
            if trace then begin
              let root = Span.add rec_ { name = "serve.request"; start = t0; stop = t1; parent = -1; req } in
              ignore (Span.add rec_ { name = "protocol.decode"; start = d0; stop = d1; parent = root; req });
              st.recording <- st.recording +. (now () -. t1)
            end);
        incr k
      done);
  st

let serve_socket () = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

let serve ~seed ~seconds ~trace rec_ =
  let socket = serve_socket () in
  let d = start_daemon socket in
  let stats = ref None in
  let t_start = now () in
  let clients =
    Fun.protect
      ~finally:(fun () -> stats := stop_daemon d)
      (fun () ->
        let deadline = t_start +. seconds in
        let results = Array.make serve_clients None in
        List.init serve_clients (fun c ->
            Thread.create
              (fun () -> results.(c) <- Some (run_client ~seed ~trace rec_ ~socket ~deadline c))
              ())
        |> List.iter Thread.join;
        Array.map (function Some st -> st | None -> failwith "serve: a client failed") results)
  in
  let cpu, hwm_kb =
    match !stats with Some s -> s | None -> failwith "serve: the daemon reported no stats"
  in
  let each f = List.concat_map f (Array.to_list clients) in
  let all f = Array.of_list (each f) in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 clients in
  let latencies = all (fun st -> st.latencies) in
  let elapsed = Array.fold_left (fun acc st -> Float.max acc (st.last_done -. t_start)) 0. clients in
  let errors = sum (fun st -> st.errors) in
  (* Every response must be the batch CLI's output for its key:
     re-compute each client's first fresh keys in-process. A key whose
     request errored has no output and is already in [errors]. *)
  let check () =
    each (fun st ->
        List.filteri (fun i _ -> i < serve_checked) (List.rev st.fresh)
        |> List.filter (fun ((id, seed) as key) ->
               match Hashtbl.find_opt st.outputs key with
               | None -> false
               | Some got ->
                   let e = Option.get (Simulate.Registry.find id) in
                   let output, _, _, _ =
                     Simulate.Registry.single_outcome ~seed ~scale:Simulate.Runner.Quick e
                   in
                   got <> output))
  in
  let mismatched, counts = if trace then counted check else (check (), []) in
  let executes = each (fun st -> st.executes) in
  let execute_s = Array.of_list (List.map snd executes) in
  let overheads = all (fun st -> st.overheads) in
  let cached = sum (fun st -> st.cached) in
  let ms x = 1000. *. x in
  {
    walls = latencies;
    elapsed;
    cpu;
    hwm_kb;
    failed = errors + List.length mismatched;
    correct = errors = 0 && mismatched = [];
    layers =
      List.map
        (fun (id, _) ->
          ( Printf.sprintf "registry.%s_s" id,
            median (Array.of_list (List.filter_map (fun (i, s) -> if i = id then Some s else None) executes)) ))
        serve_mix
      @ [
          ("exec.utilization", cpu /. (elapsed *. float_of_int pool_workers));
          (* Every request is traced; recording delays only the
             client's next request. *)
          ( "trace.overhead",
            let busy = Array.fold_left ( +. ) 0. latencies in
            Array.fold_left (fun acc st -> acc +. st.recording) busy clients /. busy );
          ("serve.p99_ms", ms (quantile latencies 0.99));
          ("serve.execute_p50_ms", ms (quantile execute_s 0.5));
          ("serve.execute_p99_ms", ms (quantile execute_s 0.99));
          ("serve.overhead_p50_ms", ms (quantile overheads 0.5));
          ("serve.overhead_p99_ms", ms (quantile overheads 0.99));
          ("protocol.decode_ms", ms (median (all (fun st -> st.decodes))));
          ("serve.cache_hit_ratio", float_of_int cached /. float_of_int (max 1 (Array.length latencies)));
          ("serve.progress_frames", float_of_int (sum (fun st -> st.progress)));
        ]
      @ counts;
  }

(* --- entry points --- *)

let names = [ "sweep"; "flood-edge-meg"; "flood-waypoint"; "serve-mixed" ]

(* One set-up, in this process: what the workload does before its first
   operation. Timing it in-process keeps process creation out of it,
   which on a shared host varies more than the set-up itself.
   - sweep: the 2-domain pool spawns its worker domain, runs one empty
     job per domain and joins. One spawn takes either about 70 or about
     250 us, depending on whether the idle CPU must be woken, so a
     sample is the mean of [pool_spawns] of them;
   - floods: the model's [make];
   - serve: a server is created on its socket and answers a first ping
     (it is then stopped, untimed). *)
let pool_spawns = 10

let setup_once workload =
  let t0 = now () in
  match workload with
  | "sweep" ->
      for _ = 1 to pool_spawns do
        ignore (Exec.map (Exec.pool pool_workers) ~jobs:pool_workers Fun.id)
      done;
      (now () -. t0) /. float_of_int pool_spawns
  | "flood-edge-meg" | "flood-waypoint" ->
      ignore (Sys.opaque_identity (make_model workload));
      let dt = now () -. t0 in
      (* Free the model now, so set-ups do not raise the peak RSS. *)
      Gc.full_major ();
      dt
  | "serve-mixed" ->
      let socket = Filename.concat out_dir (Printf.sprintf "setup-%d.sock" (Unix.getpid ())) in
      let t = Serve.Server.create (serve_config socket) in
      Fun.protect
        ~finally:(fun () ->
          Serve.Server.request_stop t;
          Serve.Server.wait t)
        (fun () ->
          ping socket;
          now () -. t0)
  | w -> invalid_arg ("Workloads.setup_once: " ^ w)

(* The host's speed drifts over seconds, so half the set-ups run before
   the window and half after it. Returns the result and the seconds of
   each set-up. *)
let setup_repeats = 61

let run workload ~seed ~seconds ~trace rec_ =
  let before = Array.init ((setup_repeats + 1) / 2) (fun _ -> setup_once workload) in
  let r =
    match workload with
    | "sweep" -> sweep ~seed ~seconds ~trace rec_
    | "flood-edge-meg" | "flood-waypoint" -> flood workload ~seed ~seconds ~trace rec_
    | "serve-mixed" -> serve ~seed ~seconds ~trace rec_
    | w -> invalid_arg ("Workloads.run: " ^ w)
  in
  (r, Array.append before (Array.init (setup_repeats / 2) (fun _ -> setup_once workload)))
