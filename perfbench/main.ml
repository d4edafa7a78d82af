(* Workload harness: the command BENCHMARK.json names.

     main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--json OUT]

   Runs one workload (workloads.ml) for a window of T seconds (default
   20) on inputs drawn from seed S (default 42), checks its outputs,
   prints every metric by name with its unit, and ends its standard
   output with one JSON line {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones,
   measured with all instrumentation off; with --trace 1 they are the
   per-layer ones, and the spans behind them are written to
   perfbench/out/<workload>-spans.jsonl. --workload all runs every
   workload in a child process of its own, so that peak RSS, GC and
   pool state are per workload. --json OUT also writes the results
   with the seed, the CPU count, the OCaml version and the argv. *)

module Jsonx = Serve.Jsonx

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

type opts = { workload : string; seed : int; seconds : float; trace : bool; json : string option }

let parse args =
  let workload = ref None and seed = ref 42 and seconds = ref 20. in
  let trace = ref false and json = ref None in
  let rec go = function
    | [] -> ()
    | [ flag ] when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json" ] ->
        die "%s needs a value" flag
    | "--workload" :: w :: rest ->
        if not (w = "all" || List.mem w Workloads.names) then
          die "unknown workload %S (expected all, %s)" w (String.concat ", " Workloads.names);
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with
        | Some v when v >= 0 -> seed := v
        | _ -> die "--seed expects an integer >= 0, got %S" s);
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when Float.is_finite v && v > 0. -> seconds := v
        | _ -> die "--seconds expects a positive number, got %S" s);
        go rest
    | "--trace" :: s :: rest ->
        (match s with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace expects 0 or 1, got %S" s);
        go rest
    | "--json" :: path :: rest ->
        json := Some path;
        go rest
    | arg :: _ -> die "unknown argument %S" arg
  in
  go args;
  match !workload with
  | None -> die "--workload is required (all, %s)" (String.concat ", " Workloads.names)
  | Some workload -> { workload; seed = !seed; seconds = !seconds; trace = !trace; json = !json }

(* --- metrics: names and units as BENCHMARK.json lists them --- *)

let end_to_end =
  [ ("op_ms", "ms"); ("ops_per_s", "1/s"); ("cpu_ms_per_op", "ms"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  List.map
    (fun (e : Simulate.Registry.experiment) -> (Printf.sprintf "registry.%s_s" e.id, "s"))
    Simulate.Registry.all
  @ [
      ("exec.utilization", "ratio");
      ("trace.overhead", "ratio");
      ("mobility.dw_dynamic_ms", "ms");
      ("mobility.dw_exact_ms", "ms");
      ("markov.spectral_ms", "ms");
      ("dynamic.reset_ms", "ms");
      ("dynamic.step_ms", "ms");
      ("dynamic.deltas_ms", "ms");
      ("dynamic.iter_edges_ms", "ms");
      ("dynamic.fill_edges_ms", "ms");
      ("flooding.self_ms", "ms");
      ("serve.p99_ms", "ms");
      ("serve.execute_p50_ms", "ms");
      ("serve.execute_p99_ms", "ms");
      ("serve.overhead_p50_ms", "ms");
      ("serve.overhead_p99_ms", "ms");
      ("protocol.decode_ms", "ms");
      ("serve.cache_hit_ratio", "ratio");
      ("serve.progress_frames", "count");
      ("flood.rounds", "count");
      ("flood.edges", "count");
      ("flood.delta_edges", "count");
      ("flood.snapshots", "count");
      ("dynamic.rebuilds", "count");
      ("dynamic.deltas_declined", "count");
      ("exec.tiles", "count");
      ("exec.jobs_completed", "count");
      ("rng.splits", "count");
      ("walk.steps", "count");
      ("gc.minor_words", "words");
      ("gc.major_words", "words");
      ("gc.top_heap_words", "words");
    ]

let metrics (r : Workloads.result) ~setups ~trace =
  let ops = float_of_int (Array.length r.walls) in
  let values =
    if trace then r.layers
    else
      [
        ("op_ms", 1000. *. Workloads.median r.walls);
        ("ops_per_s", ops /. r.elapsed);
        ("cpu_ms_per_op", 1000. *. r.cpu /. ops);
        ("peak_rss_mb", float_of_int r.hwm_kb /. 1024.);
        ("setup_s", Workloads.median setups);
      ]
  in
  (* A layer the workload does not cross reads 0. *)
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      (name, (if Float.is_finite v then v else 0.), unit))
    (if trace then per_layer else end_to_end)

let result_json (r : Workloads.result) ~setups ~trace =
  Jsonx.Obj
    [
      ("correct", Jsonx.Bool r.correct);
      ("attempted", Jsonx.Num (float_of_int (Array.length r.walls)));
      ("failed", Jsonx.Num (float_of_int r.failed));
      ( "metrics",
        Jsonx.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Jsonx.Obj [ ("value", Jsonx.Num v); ("unit", Jsonx.Str unit) ]))
             (metrics r ~setups ~trace)) );
    ]

let write_record o results =
  match o.json with
  | None -> ()
  | Some path ->
      let record =
        Jsonx.Obj
          [
            ("schema", Jsonx.Str "perfbench/1");
            ("seed", Jsonx.Num (float_of_int o.seed));
            ("seconds", Jsonx.Num o.seconds);
            ("trace", Jsonx.Bool o.trace);
            ("nproc", Jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", Jsonx.Str Sys.ocaml_version);
            ("argv", Jsonx.Arr (List.map (fun a -> Jsonx.Str a) (Array.to_list Sys.argv)));
            ("results", Jsonx.Obj results);
          ]
      in
      Out_channel.with_open_text path (fun oc -> output_string oc (Jsonx.to_string record ^ "\n"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_one o =
  mkdir_p Workloads.out_dir;
  let rec_ = Perfbench.Span.create () in
  let origin = Workloads.now () in
  let r, setups = Workloads.run o.workload ~seed:o.seed ~seconds:o.seconds ~trace:o.trace rec_ in
  Printf.printf "%s: seed %d, %g s window, %d operations, %d failed, outputs %s\n" o.workload
    o.seed o.seconds (Array.length r.walls) r.failed
    (if r.correct then "checked" else "WRONG");
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-24s %16.6f %s\n" name v unit)
    (metrics r ~setups ~trace:o.trace);
  if o.trace then begin
    let path = Filename.concat Workloads.out_dir (o.workload ^ "-spans.jsonl") in
    Out_channel.with_open_text path (fun oc ->
        Perfbench.Span.write_jsonl oc ~origin (Perfbench.Span.spans rec_));
    Printf.printf "  spans: %s\n" path
  end;
  let json = result_json r ~setups ~trace:o.trace in
  write_record o [ (o.workload, json) ];
  print_endline (Jsonx.to_string json)

(* Each workload in a child process; its output passes through and its
   last line is its result. The summary line prefixes metric names
   with the workload. *)
let run_all o =
  let child w =
    let argv =
      [|
        Sys.executable_name; "--workload"; w; "--seed"; string_of_int o.seed; "--seconds";
        Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0");
      |]
    in
    let r, wr = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr r in
    let last = ref "" in
    In_channel.fold_lines
      (fun () line ->
        print_endline line;
        last := line)
      () ic;
    close_in ic;
    match (Unix.waitpid [] pid, Jsonx.parse !last) with
    | (_, Unix.WEXITED 0), Ok json -> (w, json)
    | _ -> die "workload %s failed" w
  in
  let results = List.map child Workloads.names in
  write_record o results;
  let field name conv json = Option.bind (Jsonx.member name json) conv in
  let sum name =
    List.fold_left (fun acc (_, j) -> acc + Option.value ~default:0 (field name Jsonx.int_opt j)) 0 results
  in
  let summary =
    Jsonx.Obj
      [
        ( "correct",
          Jsonx.Bool (List.for_all (fun (_, j) -> field "correct" Jsonx.bool_opt j = Some true) results) );
        ("attempted", Jsonx.Num (float_of_int (sum "attempted")));
        ("failed", Jsonx.Num (float_of_int (sum "failed")));
        ( "metrics",
          Jsonx.Obj
            (List.concat_map
               (fun (w, j) ->
                 match Jsonx.member "metrics" j with
                 | Some (Jsonx.Obj ms) -> List.map (fun (name, v) -> (w ^ "." ^ name, v)) ms
                 | _ -> [])
               results) );
      ]
  in
  print_endline (Jsonx.to_string summary)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--serve-daemon"; socket ] -> Workloads.serve_daemon socket
  | args ->
      let o = parse args in
      (* One clock for spans and for the library's trace events. *)
      Obs.Clock.set Workloads.now;
      if o.workload = "all" then run_all o else run_one o
