(* Benchmark harness.

   Part 1 regenerates every claim table of the reproduction (E1..E18,
   the "tables and figures" of this theory paper — see DESIGN.md and
   EXPERIMENTS.md). --scale selects the tier: "quick" (default,
   CI-sized), "full" (the paper-scale sweeps recorded in
   EXPERIMENTS.md; --full is the legacy spelling), or "large"
   (quick-sized sweeps plus the off-heap million-node tier below).
   BENCH_SCALE is the environment fallback for all three.

   The large tier runs an end-to-end flood on an off-heap edge-MEG at
   n = 2^20 nodes (BENCH_LARGE_N overrides, down to 2^17 — CI smokes it
   at 2^18) and records GC gauges (major words allocated, top-heap
   words, compactions) through Obs.Metrics into the JSON baseline: the
   off-heap storage claim is precisely that these stay n-independent.
   It runs before the claim phase, so its top-heap gauge (the process's
   peak so far) is the flood's own; its row still comes last in the
   JSON claims array.

   Part 2 is a Bechamel micro-benchmark suite for the hot primitives
   (one Test.make per primitive, grouped in one run): model stepping,
   snapshot enumeration (closure and edge-buffer paths), flooding
   end-to-end, chain stepping, pair decoding and spatial hashing. Skip
   with --no-micro. At --scale large one extra micro joins the suite:
   flooding.frontier_scan_large, a full flood on the off-heap backing
   at a fixed n = 2^18 (never scaled by BENCH_LARGE_N, so baselines
   and CI gate like-for-like).

   Pass --json PATH (or --json auto for BENCH_<date>.json in the
   current directory) to also write a machine-readable baseline: the
   wall-clock seconds of every claim table plus the Bechamel OLS
   ns/run estimate of every micro-benchmark. Subsequent PRs regress
   against the recorded file.

   Part 3 (opt-in with --serve) is the service tier: an in-process
   Serve.Server on a private Unix socket, driven by Serve.Load at
   1, 2 and 4 concurrent clients. Every request carries a distinct
   seed (vary_seed) so the daemon's result cache never answers and
   the rows measure execution throughput — requests/sec and p50/p99
   latency land in the JSON baseline's "service" array (schema /7).

   --only-large (with --scale large) skips the registry claim phase
   and runs just the large tier — the cheap shape for smoke scripts
   that compare the large.flood_e2e row across --jobs counts. *)

open Bechamel

let scale () =
  let rec from_argv i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--scale" then Some Sys.argv.(i + 1)
    else from_argv (i + 1)
  in
  let named =
    match from_argv 1 with
    | Some s -> Some s
    | None ->
        if Array.exists (( = ) "--full") Sys.argv then Some "full"
        else ( match Sys.getenv_opt "BENCH_SCALE" with Some "" | None -> None | s -> s )
  in
  match Option.map String.lowercase_ascii named with
  | None | Some "quick" -> Simulate.Runner.Quick
  | Some "full" -> Simulate.Runner.Full
  | Some "large" -> Simulate.Runner.Large
  | Some other ->
      Printf.eprintf "bench: unknown scale %S (expected quick|full|large)\n" other;
      exit 2

let scale_name = function
  | Simulate.Runner.Quick -> "quick"
  | Simulate.Runner.Full -> "full"
  | Simulate.Runner.Large -> "large"

(* The large tier's end-to-end size. Only the e2e claim scales with
   this; the frontier_scan_large micro stays at its fixed n. Below
   Graph.Storage.offheap_nodes, Edge_meg.Classic.make runs one strip on
   an O(n^2) position array, which is not the off-heap run the row
   names, so smaller sizes are rejected. *)
let large_n () =
  let min = Graph.Storage.offheap_nodes in
  match Sys.getenv_opt "BENCH_LARGE_N" with
  | None | Some "" -> 1 lsl 20
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= min -> n
      | _ ->
          Printf.eprintf "bench: BENCH_LARGE_N must be an integer >= %d, got %S\n" min s;
          exit 2)

(* --FLAG N on the command line as an integer >= [min]; anything else
   exits 2 instead of falling back to the environment default. *)
let int_flag flag ~min =
  let rec from_argv i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else from_argv (i + 1)
  in
  match from_argv 1 with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= min -> Some v
      | _ ->
          Printf.eprintf "bench: %s must be an integer >= %d, got %S\n" flag min s;
          exit 2)

(* --jobs N on the command line, falling back to DYNGRAPH_JOBS. *)
let sched () =
  match int_flag "--jobs" ~min:1 with Some w -> Exec.of_int w | None -> Exec.default ()

(* --procs N on the command line, falling back to DYNGRAPH_PROCS; 0
   keeps the claim phase in-process. *)
let procs () =
  match int_flag "--procs" ~min:0 with Some p -> p | None -> Exec.default_procs ()

let json_path () =
  let rec from_argv i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else from_argv (i + 1)
  in
  match from_argv 1 with
  | Some "auto" ->
      let tm = Unix.localtime (Unix.gettimeofday ()) in
      let date =
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
          tm.Unix.tm_mday
      in
      (* Never clobber a committed baseline from earlier the same day:
         probe BENCH_<date>.json, then b..z suffixes. *)
      let rec fresh k =
        let suffix =
          if k = 0 then "" else String.make 1 (Char.chr (Char.code 'a' + k))
        in
        let path = Printf.sprintf "BENCH_%s%s.json" date suffix in
        if Sys.file_exists path && k < 25 then fresh (k + 1) else path
      in
      Some (fresh 0)
  | p -> p

let claim_tables () =
  let rng = Prng.Rng.of_seed 42 in
  let jobs = Exec.workers (sched ()) in
  let p = procs () in
  let sched =
    if p > 0 then begin
      (* Shard whole experiments over a fleet of this very binary
         re-exec'd in --worker mode on the same --jobs; the tables (and
         the counter totals each outcome carries) are byte-identical to
         the in-process run, only the seconds differ. *)
      Exec.set_worker_command
        (Some [| Sys.executable_name; "--worker"; "--jobs"; string_of_int jobs |]);
      Exec.procs p
    end
    else sched ()
  in
  Printf.printf
    "==== Claim-reproduction tables (%s scale, seed 42, %d worker(s), %d proc(s)) ====\n\n"
    (scale_name (scale ()))
    jobs p;
  (* Counters on for the claim phase: each outcome carries its work
     totals (rounds, snapshots, edges...) into the JSON baseline. The
     caller turns metrics back off before the micro phase so the
     ns/run numbers measure the disabled (production) path. *)
  Obs.Metrics.enable ();
  let all_passed, outcomes =
    Simulate.Registry.run_all_timed ~sched ~clock:Unix.gettimeofday ~rng ~scale:(scale ()) ()
  in
  Obs.Metrics.disable ();
  if not all_passed then print_endline "WARNING: some reproduction checks failed";
  outcomes

(* --- large tier: the million-node off-heap run --- *)

(* One row of the JSON "claims" array, whether it came from the
   registry or from the large tier. *)
type claim_row = {
  row_id : string;
  row_title : string;
  row_ok : bool;
  row_seconds : float;
  row_metrics : (string * int) list;
}

let row_of_outcome (o : Simulate.Registry.outcome) =
  let e = o.experiment in
  {
    row_id = e.id;
    row_title = e.title;
    row_ok = o.ok;
    row_seconds = o.seconds;
    row_metrics = o.metrics;
  }

(* GC gauges for the large tier. Gauges (not counters) because their
   values are wall-clock-ish facts about one run of one process — the
   off-heap storage claim is that major words and top-heap words stay
   n-independent, which the JSON baseline lets a reader (and a future
   PR) check. *)
let g_gc_major = Obs.Metrics.gauge "gc.major_words"

let g_gc_top_heap = Obs.Metrics.gauge "gc.top_heap_words"

let g_gc_compactions = Obs.Metrics.gauge "gc.compactions"

let large_tier () =
  let n = large_n () in
  let p = 4. /. float_of_int n and q = 0.5 in
  Printf.printf "\n==== Large tier (off-heap edge-MEG flood, n = %d, seed 42) ====\n\n" n;
  Obs.Metrics.enable ();
  Gc.full_major ();
  let before = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  (* Model construction is inside the measured window on purpose: the
     stationary init draws the ~alpha*n^2/2 initial edges, and its
     allocation behaviour is part of what the gauges certify. *)
  let model = Edge_meg.Classic.make ~n ~p ~q () in
  let time = Core.Flooding.time ~rng:(Prng.Rng.of_seed 42) ~source:0 model in
  let seconds = Unix.gettimeofday () -. t0 in
  let after = Gc.quick_stat () in
  let major_words = after.Gc.major_words -. before.Gc.major_words in
  let top_heap_words = after.Gc.top_heap_words in
  let compactions = after.Gc.compactions - before.Gc.compactions in
  Obs.Metrics.set_gauge g_gc_major major_words;
  Obs.Metrics.set_gauge g_gc_top_heap (float_of_int top_heap_words);
  Obs.Metrics.set_gauge g_gc_compactions (float_of_int compactions);
  Obs.Metrics.disable ();
  Printf.printf "flood time: %s in %.3f s\n"
    (match time with Some t -> Printf.sprintf "%d rounds" t | None -> "CAPPED")
    seconds;
  Printf.printf "gc: %.3g major words allocated, top heap %d words, %d compaction(s)\n"
    major_words top_heap_words compactions;
  [
    {
      row_id = "large.flood_e2e";
      row_title = Printf.sprintf "end-to-end flood, off-heap edge-MEG n=%d p=4/n q=0.5" n;
      row_ok = time <> None;
      row_seconds = seconds;
      row_metrics =
        [
          ("flood.time", (match time with Some t -> t | None -> -1));
          ("gc.major_words", int_of_float major_words);
          ("gc.top_heap_words", top_heap_words);
          ("gc.compactions", compactions);
        ];
    };
  ]

(* --- service tier: the serve daemon under concurrent load --- *)

(* One row of the JSON "service" array (schema 7): the serve daemon's
   throughput and latency quantiles at one client-concurrency level. *)
type service_row = {
  svc_clients : int;
  svc_per_client : int;
  svc_completed : int;
  svc_errors : int;
  svc_rps : float;
  svc_p50_ms : float;
  svc_p99_ms : float;
}

(* Each level brings up an in-process Serve.Server on a private socket,
   drives it with Serve.Load, and tears it down — the same code path as
   the `dyngraph serve` / `dyngraph load` pair, minus the fork. The id
   mix spans the protocol families (edge-MEG flood, push, gossip);
   vary_seed defeats the result cache (the claim is execution
   throughput, not cache hits) and the per-level seed bases are
   disjoint so no level warms another's alias tables into a cache
   hit. The bases are the ones the 1-executor levels of schema 7
   baselines used, so their rows stay comparable. *)
let service_tier () =
  Printf.printf "\n==== Service tier (serve daemon, concurrent NDJSON clients) ====\n\n";
  let ids = [ "E1"; "E11"; "E13" ] in
  let per_client = 6 in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dyngraph-bench-%d.sock" (Unix.getpid ()))
  in
  Obs.Clock.set Unix.gettimeofday;
  Obs.Metrics.enable ();
  let level clients =
    let server =
      Serve.Server.create
        {
          Serve.Server.socket_path;
          tcp_port = None;
          jobs = Exec.workers (sched ());
          executors = 1;
          procs = 0;
          cache_capacity = 64;
        }
    in
    let connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    in
    let s =
      Serve.Load.run ~connect ~clients ~per_client ~ids
        ~seed:(42 + 1_000_000 + (clients * 100_000))
        ~scale:Simulate.Runner.Quick ~render:Simulate.Registry.Full ~vary_seed:true ()
    in
    Serve.Server.stop server;
    Printf.printf "clients=%d: %d/%d ok, %.1f req/s, p50 %.1f ms, p99 %s%s\n" clients
      s.Serve.Load.completed (clients * per_client) s.Serve.Load.rps
      s.Serve.Load.p50_ms (Serve.Load.p99_to_string s)
      (if s.Serve.Load.errors > 0 then Printf.sprintf "  (%d ERRORS)" s.Serve.Load.errors
       else "");
    {
      svc_clients = clients;
      svc_per_client = per_client;
      svc_completed = s.Serve.Load.completed;
      svc_errors = s.Serve.Load.errors;
      svc_rps = s.Serve.Load.rps;
      svc_p50_ms = s.Serve.Load.p50_ms;
      svc_p99_ms = s.Serve.Load.p99_ms;
    }
  in
  let rows = List.map level [ 1; 2; 4 ] in
  Obs.Metrics.disable ();
  rows

(* --- micro-benchmarks --- *)

let prepared_edge_meg n =
  let dyn = Edge_meg.Classic.make ~n ~p:(4. /. float_of_int n) ~q:0.5 () in
  Core.Dynamic.reset dyn (Prng.Rng.of_seed 1);
  dyn

let prepared_waypoint n =
  let geo =
    Mobility.Waypoint.create ~n ~l:(sqrt (float_of_int n)) ~r:1.5 ~v_min:1. ~v_max:1.25 ()
  in
  Mobility.Geo.reset geo (Prng.Rng.of_seed 2);
  geo

let prepared_node_meg n =
  let k = 16 in
  let jump = 0.1 /. float_of_int k in
  let chain =
    Markov.Chain.of_rows
      (Array.init k (fun s ->
           Array.append [| ((s + 1) mod k, 0.9) |] (Array.init k (fun t -> (t, jump)))))
  in
  let connect x y =
    let d = abs (x - y) in
    min d (k - d) <= 1
  in
  let dyn = Node_meg.Model.make ~n (Node_meg.Model.space ~chain ~connect) in
  Core.Dynamic.reset dyn (Prng.Rng.of_seed 3);
  dyn

let prepared_rp n =
  let family = Random_path.Family.grid_shortest ~rows:12 ~cols:12 in
  let dyn = Random_path.Rp_model.make ~hold:0.5 ~n ~family () in
  Core.Dynamic.reset dyn (Prng.Rng.of_seed 4);
  dyn

let micro_tests () =
  let n = 256 in
  let edge_meg = prepared_edge_meg n in
  let waypoint = prepared_waypoint n in
  let waypoint_dyn = Mobility.Geo.dynamic waypoint in
  let node_meg = prepared_node_meg n in
  let rp = prepared_rp 144 in
  let fill_buf = Graph.Edge_buffer.create ~capacity:(8 * n) () in
  let chain =
    Markov.Chain.of_rows
      (Array.init 64 (fun s -> Array.init 8 (fun j -> ((s + j + 1) mod 64, 1.))))
  in
  let chain_rng = Prng.Rng.of_seed 5 in
  let chain_state = ref 0 in
  let flood_rng = Prng.Rng.of_seed 6 in
  let flood_model = Edge_meg.Classic.make ~n:128 ~p:(4. /. 128.) ~q:0.5 () in
  (* Delta-step: one model step plus the O(Δ) adjacency maintenance a
     delta-driven kernel does per round — the incremental counterpart
     of step + fill_edges + rebuild. *)
  let delta_meg = prepared_edge_meg n in
  let delta_sync = Core.Adj_sync.create delta_meg in
  Core.Adj_sync.ensure delta_sync;
  (* Plain flooding in a stickier regime (lower churn, sparser graph)
     than end_to_end: longer runs, about 15 rounds. The model carries
     the boundary hook, so a round is a step and one cut scan; the name
     predates the hook. *)
  let frontier_rng = Prng.Rng.of_seed 9 in
  let frontier_model = Edge_meg.Classic.make ~n:128 ~p:(1. /. 256.) ~q:0.25 () in
  (* The headline model at the perfbench flood-waypoint density (L =
     sqrt n, r = 1.5, steady-state init): plain flooding through the
     grid's boundary hook, reset and steps included. *)
  let waypoint_flood_rng = Prng.Rng.of_seed 10 in
  let waypoint_flood =
    Mobility.Waypoint.dynamic ~init:Steady ~n:1024 ~l:32. ~r:1.5 ~v_min:1. ~v_max:1.25 ()
  in
  let pair_rng = Prng.Rng.of_seed 7 in
  let space_rng = Prng.Rng.of_seed 8 in
  let xs = Array.init 512 (fun _ -> Prng.Rng.float space_rng 16.) in
  let ys = Array.init 512 (fun _ -> Prng.Rng.float space_rng 16.) in
  let space_scratch = Mobility.Space.scratch () in
  [
    Test.make ~name:"edge_meg.step n=256"
      (Staged.stage (fun () -> Core.Dynamic.step edge_meg));
    Test.make ~name:"edge_meg.snapshot n=256"
      (Staged.stage (fun () -> ignore (Core.Dynamic.edge_count edge_meg)));
    Test.make ~name:"edge_meg.fill_edges n=256"
      (Staged.stage (fun () -> Core.Dynamic.fill_edges edge_meg fill_buf));
    (* Batched x100 like chain.step below: one call fit with r² of 0.05
       and -0.02 (BENCH_2026-08-09d). *)
    Test.make ~name:"edge_meg.delta_step n=256 x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             Core.Dynamic.step delta_meg;
             Core.Adj_sync.advance delta_sync
           done));
    Test.make ~name:"waypoint.step n=256 x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             Mobility.Geo.step waypoint
           done));
    Test.make ~name:"waypoint.step+edges n=256"
      (Staged.stage (fun () ->
           Mobility.Geo.step waypoint;
           ignore (Core.Dynamic.edge_count waypoint_dyn)));
    Test.make ~name:"waypoint.fill_edges n=256"
      (Staged.stage (fun () -> Core.Dynamic.fill_edges waypoint_dyn fill_buf));
    Test.make ~name:"node_meg.step n=256 k=16"
      (Staged.stage (fun () -> Core.Dynamic.step node_meg));
    Test.make ~name:"node_meg.snapshot n=256"
      (Staged.stage (fun () -> ignore (Core.Dynamic.edge_count node_meg)));
    Test.make ~name:"node_meg.fill_edges n=256"
      (Staged.stage (fun () -> Core.Dynamic.fill_edges node_meg fill_buf));
    Test.make ~name:"rp_model.step n=144 grid 12x12"
      (Staged.stage (fun () -> Core.Dynamic.step rp));
    Test.make ~name:"flooding.end_to_end edge-MEG n=128"
      (Staged.stage (fun () ->
           ignore (Core.Flooding.time ~rng:flood_rng ~source:0 flood_model)));
    Test.make ~name:"flooding.end_to_end waypoint n=1024"
      (Staged.stage (fun () ->
           ignore (Core.Flooding.time ~rng:waypoint_flood_rng ~source:0 waypoint_flood)));
    Test.make ~name:"flooding.frontier_scan n=128"
      (Staged.stage (fun () ->
           ignore (Core.Flooding.time ~rng:frontier_rng ~source:0 frontier_model)));
    (* Batched: a single Chain.step is a handful of ns, below Bechamel's
       resolution floor — the old one-step micro fit with r² ≈ 0.15,
       pure noise. 100 steps per run lifts the signal ~two orders of
       magnitude; divide ns_per_run by 100 for the per-step figure. *)
    Test.make ~name:"chain.step 64 states x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             chain_state := Markov.Chain.step chain chain_rng !chain_state
           done));
    Test.make ~name:"pairs.decode n=1024 x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Graph.Pairs.decode 1024 (Prng.Rng.int pair_rng (Graph.Pairs.total 1024)))
           done));
    Test.make ~name:"space.close_pairs n=512 r=1.5"
      (Staged.stage (fun () ->
           Mobility.Space.iter_close_pairs ~scratch:space_scratch ~l:16. ~r:1.5 ~xs ~ys
             (fun _ _ -> ())));
  ]

(* The large-tier micro: a full flood per call on the off-heap backing
   at a fixed n = 2^18 (deliberately NOT BENCH_LARGE_N: the gated
   baseline and the CI smoke run must measure the same thing). The
   sticky sparse regime mirrors flooding.frontier_scan. The model
   carries the boundary hook, so a call is about 64 rounds of a
   model step and one cut scan over the ~2^18 live edges (flood.edges),
   with no adjacency and no deltas (flood.delta_edges 0); the step
   outweighs the scan. The name predates the hook and is gated. *)
let large_micro_tests () =
  let n = 1 lsl 18 in
  let rng = Prng.Rng.of_seed 11 in
  (* alpha ~ 2/n: expected degree ~2, edges persisting ~1/q steps. *)
  let model = Edge_meg.Classic.make ~n ~p:(0.25 /. float_of_int n) ~q:0.125 () in
  [
    Test.make
      ~name:(Printf.sprintf "flooding.frontier_scan_large n=%d" n)
      (Staged.stage (fun () -> ignore (Core.Flooding.time ~rng ~source:0 model)));
  ]

let run_group ~cfg tests =
  let tests = Test.make_grouped ~name:"dyngraph" tests in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (name, result) ->
         let ns =
           match Analyze.OLS.estimates result with
           | Some (e :: _) -> e
           | Some [] | None -> nan
         in
         let r2 = Option.value ~default:nan (Analyze.OLS.r_square result) in
         (name, ns, r2))

let run_micro sc =
  Printf.printf "\n==== Micro-benchmarks (Bechamel, OLS time per call) ====\n\n";
  let base =
    run_group ~cfg:(Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()) (micro_tests ())
  in
  let numeric =
    if sc <> Simulate.Runner.Large then base
    else
      (* A call is a whole off-heap flood (~1.5 s at n=2^18, floored
         by the stationary init's ~m geometric draws): its own group
         with a quota wide enough for several samples, so the OLS
         estimate is stable enough to gate at 10%. *)
      base
      @ run_group
          ~cfg:(Benchmark.cfg ~limit:8 ~quota:(Time.second 8.0) ~kde:None ())
          (large_micro_tests ())
  in
  let table =
    Stats.Table.create ~title:"time per call" ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun (name, ns, r2) -> Stats.Table.add_row table [ Text name; Fixed (ns, 1); Fixed (r2, 4) ])
    numeric;
  print_string (Stats.Table.render table);
  numeric

(* --- machine-readable baseline --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

(* Provenance for the dyngraph-bench/7 schema: which commit and which
   machine produced the numbers, so baselines are attributable across
   PRs. Both fields degrade to "unknown" rather than fail. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, line) with Unix.WEXITED 0, rev when rev <> "" -> rev | _ -> "unknown"
  with _ -> "unknown"

let hostname () = try Unix.gethostname () with _ -> "unknown"

let metrics_json (ms : (string * int) list) =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v) ms)
  ^ "}"

let write_json path ~claims ~micro ~service =
  let oc = open_out path in
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.fprintf oc "{\n  \"schema\": \"dyngraph-bench/7\",\n";
  Printf.fprintf oc "  \"date\": \"%04d-%02d-%02dT%02d:%02d:%02d\",\n" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
  Printf.fprintf oc "  \"git_rev\": \"%s\",\n" (json_escape (git_rev ()));
  Printf.fprintf oc "  \"hostname\": \"%s\",\n" (json_escape (hostname ()));
  (* Fleet topology of the claim phase (schema 5): worker domains per
     process and worker processes (0 = in-process). Deterministic rows
     never depend on either; the seconds column does. *)
  Printf.fprintf oc "  \"topology\": {\"jobs\": %d, \"procs\": %d},\n"
    (Exec.workers (sched ()))
    (procs ());
  Printf.fprintf oc "  \"scale\": \"%s\",\n" (scale_name (scale ()));
  Printf.fprintf oc "  \"seed\": 42,\n";
  Printf.fprintf oc "  \"workers\": %d,\n" (Exec.workers (sched ()));
  Printf.fprintf oc "  \"claims\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"id\": \"%s\", \"title\": \"%s\", \"passed\": %b, \"seconds\": %s, \"metrics\": %s}%s\n"
        (json_escape r.row_id) (json_escape r.row_title) r.row_ok (json_float r.row_seconds)
        (metrics_json r.row_metrics)
        (if i = List.length claims - 1 then "" else ","))
    claims;
  Printf.fprintf oc "  ],\n  \"micro\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n"
        (json_escape name) (json_float ns) (json_float r2)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  (* Schema 7: the service tier's throughput/latency claims, one row
     per client-concurrency level. Empty (not absent)
     when the run skipped --serve, so readers can tell "not measured"
     from "older schema". *)
  Printf.fprintf oc "  ],\n  \"service\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"clients\": %d, \"per_client\": %d, \"completed\": %d, \"errors\": %d, \
         \"rps\": %s, \"p50_ms\": %s, \"p99_ms\": %s}%s\n"
        r.svc_clients r.svc_per_client r.svc_completed r.svc_errors
        (json_float r.svc_rps) (json_float r.svc_p50_ms) (json_float r.svc_p99_ms)
        (if i = List.length service - 1 then "" else ","))
    service;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let () =
  (* --jobs also powers intra-run tile parallelism: the large-tier
     flood's partitioned edge-MEG step fans its strips over Exec.Pool,
     so a single large run accelerates, not just the many-trials
     phases. Results are identical at every jobs count. *)
  Exec.Pool.set_workers (Exec.workers (sched ()));
  (* Fleet worker mode: spawned by a parent bench running with --procs
     (and its --jobs). Serve experiments over stdin/stdout and
     exit — no banner, no micro phase. Metrics are always on (the
     parent's claim phase runs with them on and absorbs the deltas we
     ship back). *)
  if Array.exists (( = ) "--worker") Sys.argv then begin
    Obs.Clock.set Unix.gettimeofday;
    Obs.Metrics.enable ();
    Exec.Worker.serve ~dispatch:Simulate.Registry.dispatch ();
    exit 0
  end;
  (* Validate --procs before any work starts, not at first use. *)
  ignore (procs ());
  let sc = scale () in
  let large = if sc = Simulate.Runner.Large then large_tier () else [] in
  (* --only-large skips the registry claim phase: the smoke scripts
     compare the large-tier row across --jobs counts and should not
     pay for the full table twice. *)
  let rows =
    if Array.exists (( = ) "--only-large") Sys.argv then []
    else List.map row_of_outcome (claim_tables ())
  in
  let rows = rows @ large in
  let micro =
    if Array.exists (( = ) "--no-micro") Sys.argv then [] else run_micro sc
  in
  let service =
    if Array.exists (( = ) "--serve") Sys.argv then service_tier () else []
  in
  match json_path () with
  | None -> ()
  | Some path ->
      write_json path ~claims:rows ~micro ~service;
      Printf.printf "\nwrote %s\n" path
