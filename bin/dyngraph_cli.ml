(* Command-line driver for the claim-reproduction experiments.

   dyngraph list                 enumerate experiments
   dyngraph run E6 --seed 7      run one experiment
   dyngraph run all --full       run everything at paper scale
   dyngraph run all --jobs 8     same tables, computed on 8 worker domains
   dyngraph csv E1               emit the tables of one experiment as CSV *)

open Cmdliner

let seed_arg =
  let doc =
    "PRNG seed; runs are bit-reproducible per seed (and per seed only: the \
     worker count never changes a result)."
  in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let full_arg =
  let doc = "Run at paper scale (larger sweeps, more trials); shorthand for $(b,--scale full)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let scale_arg =
  let doc =
    "Sweep scale: $(b,quick) (CI-sized, the default), $(b,full) (the \
     paper-scale sweeps recorded in EXPERIMENTS.md) or $(b,large) \
     (quick-sized sweeps with 5 trials; the million-node off-heap tier \
     itself lives in the bench driver — see bench/main.ml). Overrides \
     $(b,--full)."
  in
  let scale_conv =
    Arg.enum
      [
        ("quick", Simulate.Runner.Quick);
        ("full", Simulate.Runner.Full);
        ("large", Simulate.Runner.Large);
      ]
  in
  Arg.(value & opt (some scale_conv) None & info [ "scale" ] ~docv:"SCALE" ~doc)

(* Counts are rejected at parse time when out of range, never clamped
   later. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" min s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Number of worker domains for the execution engine. 1 (the default) runs \
     sequentially; N runs independent trials and experiments on a pool of N \
     domains, producing byte-identical output for every N."
  in
  let env = Cmd.Env.info "DYNGRAPH_JOBS" ~doc:"Default for $(b,--jobs)." in
  Arg.(value & opt (int_at_least 1) 1 & info [ "jobs"; "j" ] ~env ~docv:"N" ~doc)

let procs_arg =
  let doc =
    "Number of forked worker processes for the execution engine. 0 (the \
     default) keeps execution in-process; N runs whole experiments on a fleet \
     of up to N $(b,dyngraph worker) processes, one experiment per worker at \
     a time, with byte-identical output for every N. A single experiment runs \
     on one worker. A crashed or wedged worker loses only its own experiment, \
     which is re-run on a fresh worker. Composes with $(b,--jobs): each worker \
     is started with the same $(b,--jobs) and runs its experiment's trials \
     and tile kernels on that many domains. Defaults to $(b,DYNGRAPH_PROCS) \
     when set (negative or unparsable values are ignored with a warning)."
  in
  Arg.(value & opt (int_at_least 0) (Exec.default_procs ()) & info [ "procs" ] ~docv:"N" ~doc)

let journal_arg =
  let doc =
    "Checkpoint completed experiments to $(docv); requires $(b,--procs). If \
     the run is interrupted, re-running the same command resumes from the \
     journal instead of recomputing finished experiments; a journal recorded \
     for a different seed/scale/command is discarded."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Collect work counters (rounds, snapshots, enumerated edges, RNG splits, \
     jobs) and print them after the results. Counter totals count work items, \
     so they are identical for every $(b,--jobs); wall-clock timers and gauges \
     go to stderr instead."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Write a structured JSONL trace of the run (trial and experiment \
     boundaries, flooding milestones, worker claims) to $(docv). Event lines \
     are ordered by structural coordinates, so two runs at different \
     $(b,--jobs) produce identical files modulo the wall field."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc = "Report job completion progress on stderr (stdout is untouched)." in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* Observability bracketing shared by run/verify/csv: flip the switches
   before the work, flush trace and counters after it. Counters go to
   stdout (they are deterministic); timers and gauges carry wall-clock
   content and go to stderr so result output stays byte-comparable. *)
let obs_setup ~metrics ~trace ~progress =
  Obs.Clock.set Unix.gettimeofday;
  if metrics then Obs.Metrics.enable ();
  (match trace with Some _ -> Obs.Trace.enable () | None -> ());
  if progress then Obs.Progress.enable ()

let obs_finish ~metrics ~trace =
  (match trace with
  | Some path ->
      let oc = open_out path in
      Obs.Trace.write_jsonl oc;
      close_out oc;
      Printf.eprintf "trace: %d events -> %s\n%!"
        (List.length (Obs.Trace.events ())) path
  | None -> ());
  if metrics then begin
    print_newline ();
    print_endline "---- metrics (work counters) ----";
    List.iter (fun (name, v) -> Printf.printf "%-24s %d\n" name v) (Obs.Metrics.snapshot ());
    let timers = Obs.Metrics.timers () and gauges = Obs.Metrics.gauges () in
    if timers <> [] || gauges <> [] then begin
      Printf.eprintf "---- metrics (wall clock, nondeterministic) ----\n";
      List.iter (fun (name, s) -> Printf.eprintf "%-24s %.6fs\n" name s) timers;
      List.iter (fun (name, v) -> Printf.eprintf "%-24s %.6f\n" name v) gauges;
      flush stderr
    end
  end

let ( let* ) = Result.bind

(* Fleet wiring shared by run/verify: spawn workers as this very
   executable's `worker` subcommand with the parent's --jobs, mirroring
   its metrics and tracing switches so the deltas the workers ship back
   are complete. Returns the scheduler to use, or an error for a
   journal without a fleet to checkpoint. *)
let fleet_setup ~procs ~jobs ~journal ~metrics ~trace ~progress =
  (* --jobs also drives intra-run tile parallelism (Exec.Pool): the
     partitioned off-heap edge-MEG step fans out inside a single
     trial, with results identical at every jobs count. *)
  Exec.Pool.set_workers jobs;
  if journal <> None && procs = 0 then Error "--journal requires --procs"
  else if procs > 0 then begin
    let cmd =
      Array.of_list
        ([ Sys.executable_name; "worker"; "--jobs"; string_of_int jobs ]
        @ (if metrics then [ "--metrics" ] else [])
        @ (if trace <> None then [ "--trace-mem" ] else [])
        (* Workers never render progress themselves (their stderr is
           shared); --progress-pipe makes them forward ticks as framed
           'P' messages for the parent's single coherent line. *)
        @ (if progress then [ "--progress-pipe" ] else []))
    in
    Exec.set_worker_command (Some cmd);
    Exec.set_journal journal;
    Ok (Exec.procs procs)
  end
  else Ok (Exec.of_int jobs)

let id_arg =
  (* Derived from the registry so the range can never go stale again. *)
  let doc =
    let ids = List.map (fun (e : Simulate.Registry.experiment) -> e.id) Simulate.Registry.all in
    Printf.sprintf "Experiment id (%s .. %s) or 'all'." (List.hd ids)
      (List.nth ids (List.length ids - 1))
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

let resolve_scale scale full =
  match scale with
  | Some s -> s
  | None -> if full then Simulate.Runner.Full else Simulate.Runner.Quick

let list_cmd =
  let run () =
    List.iter
      (fun (e : Simulate.Registry.experiment) ->
        Printf.printf "%-4s %s\n     %s\n" e.id e.title e.claim)
      Simulate.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

let resolve id =
  match Simulate.Registry.find id with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "unknown experiment %S (try 'list')" id)

let run_cmd =
  let run id seed scale_opt full jobs procs journal metrics trace progress =
    let rng = Prng.Rng.of_seed seed in
    let scale = resolve_scale scale_opt full in
    let* sched = fleet_setup ~procs ~jobs ~journal ~metrics ~trace ~progress in
    obs_setup ~metrics ~trace ~progress;
    let result =
      if String.lowercase_ascii id = "all" then begin
        let ok = Simulate.Registry.run_all ~sched ~rng ~scale () in
        if ok then Ok () else Error "some reproduction checks failed"
      end
      else
        match resolve id with
        | Ok e ->
            (* A one-job plan: in-process its own plans use the --jobs
               pool; under --procs it runs on one worker. *)
            let ok = Simulate.Registry.run_one ~sched ~rng ~scale e in
            if ok then Ok () else Error (Printf.sprintf "%s: some checks failed" e.id)
        | Error m -> Error m
    in
    obs_finish ~metrics ~trace;
    result
  in
  let term =
    Term.(
      term_result'
        (const run $ id_arg $ seed_arg $ scale_arg $ full_arg $ jobs_arg $ procs_arg
       $ journal_arg $ metrics_arg $ trace_arg $ progress_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an experiment, print its tables and scorecard")
    term

let verify_cmd =
  let run seed scale_opt full jobs procs journal metrics trace progress =
    let rng = Prng.Rng.of_seed seed in
    let scale = resolve_scale scale_opt full in
    let* sched = fleet_setup ~procs ~jobs ~journal ~metrics ~trace ~progress in
    obs_setup ~metrics ~trace ~progress;
    (* Shares Registry.run_each with `run all`: same substream per
       experiment, so these scorecards match `run all --seed N` exactly. *)
    let failed = Simulate.Registry.verify ~sched ~rng ~scale () in
    let result =
      if failed = 0 then begin
        print_endline "all reproduction checks passed";
        Ok ()
      end
      else Error (Printf.sprintf "%d experiment(s) with failing checks" failed)
    in
    obs_finish ~metrics ~trace;
    result
  in
  let term =
    Term.(
      term_result'
        (const run $ seed_arg $ scale_arg $ full_arg $ jobs_arg $ procs_arg $ journal_arg
       $ metrics_arg $ trace_arg $ progress_arg))
  in
  Cmd.v (Cmd.info "verify" ~doc:"Run all experiments, print only the scorecards") term

let outdir_arg =
  let doc = "Write one CSV file per table into this directory instead of stdout." in
  Arg.(value & opt (some string) None & info [ "outdir" ] ~docv:"DIR" ~doc)

let csv_cmd =
  let run id seed scale_opt full jobs outdir metrics trace progress =
    let rng = Prng.Rng.of_seed seed in
    let scale = resolve_scale scale_opt full in
    let sched = Exec.of_int jobs in
    Exec.Pool.set_workers jobs;
    obs_setup ~metrics ~trace ~progress;
    let result =
      match (String.lowercase_ascii id, outdir) with
      | "all", Some dir ->
          let paths = Simulate.Export.export_all ~sched ~dir ~rng ~scale () in
          List.iter print_endline paths;
          Ok ()
      | "all", None -> Error "csv all requires --outdir"
      | _, _ -> (
          match resolve id with
          | Error m -> Error m
          | Ok e -> (
              match outdir with
              | Some dir ->
                  let paths = Simulate.Export.export_experiment ~sched ~dir ~rng ~scale e in
                  List.iter print_endline paths;
                  Ok ()
              | None ->
                  let tables = e.run ~sched ~rng ~scale in
                  List.iter (fun t -> print_string (Stats.Table.to_csv t)) tables;
                  Ok ()))
    in
    obs_finish ~metrics ~trace;
    result
  in
  let term =
    Term.(
      term_result'
        (const run $ id_arg $ seed_arg $ scale_arg $ full_arg $ jobs_arg $ outdir_arg
       $ metrics_arg $ trace_arg $ progress_arg))
  in
  Cmd.v (Cmd.info "csv" ~doc:"Run experiments and emit CSV (stdout or --outdir)") term

let worker_cmd =
  (* The fleet worker entry point: spawned by a parent dyngraph running
     with --procs, never by hand. Speaks the length-prefixed protocol of
     Exec.Worker.serve on stdin/stdout; the parent passes its --jobs
     (this worker's domain count, for an experiment's own plans and
     tile kernels alike) and --metrics / --trace-mem to mirror its own observability
     switches so the deltas shipped back are complete. *)
  let metrics_flag =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Collect work counters for the parent.")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace-mem" ]
          ~doc:"Record trace events in memory and ship them to the parent.")
  in
  let progress_pipe_flag =
    Arg.(
      value & flag
      & info [ "progress-pipe" ]
          ~doc:
            "Forward progress ticks to the parent as framed pipe messages \
             (workers never write progress to the shared stderr).")
  in
  let run jobs metrics trace_mem progress_pipe =
    Obs.Clock.set Unix.gettimeofday;
    Exec.Pool.set_workers jobs;
    if metrics then Obs.Metrics.enable ();
    if trace_mem then Obs.Trace.enable ();
    Exec.Worker.serve ~forward_progress:progress_pipe ~dispatch:Simulate.Registry.dispatch ()
  in
  let term = Term.(const run $ jobs_arg $ metrics_flag $ trace_flag $ progress_pipe_flag) in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Serve experiments over stdin/stdout (spawned by --procs)")
    term

let port_conv =
  let parse s =
    match int_of_string_opt s with
    | Some p when p >= 1 && p <= 65535 -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "expected a TCP port in 1..65535, got %S" s))
  in
  Arg.conv ~docv:"PORT" (parse, Format.pp_print_int)

let socket_arg =
  let doc = "Unix socket path of the daemon." in
  Arg.(value & opt string "dyngraph.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let tcp_arg =
    let doc = "Also listen on loopback TCP port $(docv)." in
    Arg.(value & opt (some port_conv) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let cache_arg =
    let doc =
      "Warm result-cache capacity (entries keyed by id/seed/scale/render, the \
       least recently used evicted first); 0 disables caching."
    in
    Arg.(value & opt (int_at_least 0) 64 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let serve_procs_arg =
    let doc =
      "With 1, run each request on a worker process instead of in-process \
       (0, the default), crash-isolated from the daemon; the worker uses the \
       daemon's $(b,--jobs) domains and forwards its progress frames. A \
       request is one job, so a larger fleet would never use a second \
       worker."
    in
    Arg.(value & opt (enum [ ("0", 0); ("1", 1) ]) 0 & info [ "procs" ] ~docv:"W" ~doc)
  in
  let run socket tcp jobs procs cache =
    (* The daemon always runs with a real clock and metrics: progress
       throttling and latency measurement need the clock, the stats
       line at shutdown needs the counters, and neither perturbs
       rendered experiment bytes. *)
    Obs.Clock.set Unix.gettimeofday;
    Obs.Metrics.enable ();
    if procs > 0 then
      (* Workers run on the daemon's --jobs, mirror its metrics and
         forward progress ticks as framed messages (liveness for hang
         detection). *)
      Exec.set_worker_command
        (Some
           [|
             Sys.executable_name; "worker"; "--jobs"; string_of_int jobs; "--metrics";
             "--progress-pipe";
           |]);
    let config =
      {
        Serve.Server.socket_path = socket;
        tcp_port = tcp;
        jobs;
        executors = 1;
        procs;
        cache_capacity = cache;
      }
    in
    let t = Serve.Server.create config in
    let stop _ = Serve.Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.eprintf "dyngraph serve: listening on %s%s (jobs %d%s, cache %d)\n%!" socket
      (match tcp with Some p -> Printf.sprintf " and 127.0.0.1:%d" p | None -> "")
      jobs
      (if procs > 0 then Printf.sprintf ", procs %d" procs else "")
      cache;
    Serve.Server.wait t
  in
  let term = Term.(const run $ socket_arg $ tcp_arg $ jobs_arg $ serve_procs_arg $ cache_arg) in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived simulation daemon: NDJSON experiment requests from \
          concurrent clients over a Unix (and optional TCP) socket, executed \
          one at a time with fair per-connection scheduling, streamed progress \
          frames, warm pool and result cache. Results are byte-identical to \
          the batch $(b,run) command. SIGTERM shuts down cleanly.")
    term

let load_cmd =
  let tcp_arg =
    let doc = "Connect to the daemon on loopback TCP port $(docv) instead of the socket." in
    Arg.(value & opt (some port_conv) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let clients_arg =
    Arg.(
      value
      & opt (int_at_least 1) 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value
      & opt (int_at_least 1) 8
      & info [ "requests" ] ~docv:"R" ~doc:"Requests issued per client.")
  in
  let ids_arg =
    let doc =
      "Comma-separated experiment ids to request, walked round-robin (client \
       $(i,i) starts at offset $(i,i), so the fleet collectively covers all of \
       them)."
    in
    Arg.(value & opt string "E1" & info [ "ids" ] ~docv:"IDS" ~doc)
  in
  let render_arg =
    let doc = "Result rendering: $(b,full) tables or the $(b,scorecard) summary." in
    let render_conv =
      Arg.enum [ ("full", Simulate.Registry.Full); ("scorecard", Simulate.Registry.Scorecard) ]
    in
    Arg.(value & opt render_conv Simulate.Registry.Full & info [ "render" ] ~docv:"MODE" ~doc)
  in
  let vary_seed_arg =
    let doc =
      "Give every request a distinct seed (base seed + request index) so \
       repeats miss the daemon's result cache — measures execution throughput \
       rather than cache hits."
    in
    Arg.(value & flag & info [ "vary-seed" ] ~doc)
  in
  let dump_arg =
    let doc =
      "Write each result's output verbatim to $(docv)/c<client>_r<k>_<id>.out \
       (for byte-identity checks against the batch CLI)."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"DIR" ~doc)
  in
  let run socket tcp clients requests ids_s seed scale_opt full render vary_seed dump =
    let scale = resolve_scale scale_opt full in
    let ids =
      String.split_on_char ',' ids_s |> List.map String.trim |> List.filter (fun s -> s <> "")
    in
    let unknown = List.filter (fun id -> Simulate.Registry.find id = None) ids in
    if ids = [] then Error "no experiment ids given"
    else if unknown <> [] then
      Error (Printf.sprintf "unknown experiment(s): %s" (String.concat ", " unknown))
    else begin
      let connect () =
        match tcp with
        | Some port ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            fd
        | None ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            fd
      in
      let s =
        Serve.Load.run ~connect ~clients ~per_client:requests ~ids ~seed ~scale ~render
          ~vary_seed ?dump ()
      in
      Printf.printf "serve load: %d clients x %d requests (%s, scale %s)\n" s.Serve.Load.clients
        s.Serve.Load.per_client ids_s
        (Serve.Protocol.scale_to_string scale);
      Printf.printf "completed: %d  errors: %d  cached: %d  progress_frames: %d\n"
        s.Serve.Load.completed s.Serve.Load.errors s.Serve.Load.cached
        s.Serve.Load.progress_frames;
      Printf.printf "wall: %.3fs  rps: %.2f  p50: %.1fms  p99: %s  mean: %.1fms\n"
        s.Serve.Load.seconds s.Serve.Load.rps s.Serve.Load.p50_ms
        (Serve.Load.p99_to_string s) s.Serve.Load.mean_ms;
      if s.Serve.Load.errors > 0 then
        Error (Printf.sprintf "%d request(s) failed" s.Serve.Load.errors)
      else Ok ()
    end
  in
  let term =
    Term.(
      term_result'
        (const run $ socket_arg $ tcp_arg $ clients_arg $ requests_arg $ ids_arg $ seed_arg
       $ scale_arg $ full_arg $ render_arg $ vary_seed_arg $ dump_arg))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a running $(b,dyngraph serve) daemon with synthetic many-client \
          load and report throughput (requests/sec) and latency (p50/p99).")
    term

let bounds_cmd =
  (* A closed-form calculator for the paper's bounds: plug in model
     parameters, read off every applicable expression. *)
  let n_arg = Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"number of nodes") in
  let p_arg =
    Arg.(value & opt (some float) None & info [ "p" ] ~doc:"edge-MEG birth probability")
  in
  let q_arg =
    Arg.(value & opt float 0.5 & info [ "q" ] ~doc:"edge-MEG death probability")
  in
  let l_arg =
    Arg.(value & opt (some float) None & info [ "L" ] ~doc:"side of the mobility square")
  in
  let r_arg = Arg.(value & opt float 1.0 & info [ "r" ] ~doc:"transmission radius") in
  let v_arg = Arg.(value & opt float 1.0 & info [ "v" ] ~doc:"maximum node speed") in
  let run n p l r v q =
    let table =
      Stats.Table.create ~title:(Printf.sprintf "closed-form bounds at n = %d" n)
        ~columns:[ "bound"; "value"; "paper source" ]
    in
    let add name value source =
      Stats.Table.add_row table [ Text name; Float value; Text source ]
    in
    (match p with
    | Some p ->
        add "edge-MEG log n / log(1+np)" (Theory.Bounds.edge_meg_eq2 ~n ~p) "Eq. 2 [10]";
        add "edge-MEG Theorem 1 form" (Theory.Bounds.edge_meg_general ~n ~p ~q) "Appendix A";
        let ts = Markov.Two_state.make ~p ~q in
        add "per-edge stationary probability" (Markov.Two_state.stationary_on ts) "alpha";
        add "per-edge mixing time" (float_of_int (Markov.Two_state.mixing_time ts)) "T_mix"
    | None -> ());
    (match l with
    | Some l ->
        add "waypoint flooding bound" (Theory.Bounds.waypoint ~l ~v_max:v ~r ~n) "Sec. 4.1";
        add "waypoint mixing scale L/v" (l /. v) "[1, 29]";
        add "propagation lower bound L/(r+v)"
          (Theory.Bounds.lower_bound_propagation ~l ~r ~v)
          "trivial"
    | None -> ());
    add "log^2 n" (Theory.Bounds.log2n n) "-";
    add "log^3 n" (Theory.Bounds.log3n n) "-";
    print_string (Stats.Table.render table)
  in
  let term = Term.(const run $ n_arg $ p_arg $ l_arg $ r_arg $ v_arg $ q_arg) in
  Cmd.v (Cmd.info "bounds" ~doc:"Evaluate the paper's closed-form bounds") term

let () =
  let info =
    Cmd.info "dyngraph" ~version:"1.0.0"
      ~doc:"Flooding-time experiments on Markovian evolving graphs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; csv_cmd; verify_cmd; bounds_cmd; worker_cmd; serve_cmd; load_cmd ]))
