(* Intra-run parallelism (DESIGN.md section 11): the tile pool and the
   kernels built on it must be byte-identical to their sequential
   counterparts at every worker count, across the heap/off-heap layout
   boundary and the chunk/partition boundaries. *)

let seeded k = Prng.Rng.of_seed k

(* Run each test body with the tile pool forced to [w] workers (and,
   when given, an explicit tile_min), restoring a quiescent pool
   (workers = 1, env-driven tile_min) afterwards so the golden and
   determinism suites that follow never see a fan-out. *)
let with_pool ?tile_min w body =
  Exec.Pool.set_workers w;
  Exec.Pool.set_tile_min tile_min;
  Fun.protect
    ~finally:(fun () ->
      Exec.Pool.set_workers 1;
      Exec.Pool.set_tile_min None)
    body

let check_result name (a : Core.Flooding.result) (b : Core.Flooding.result) =
  Alcotest.(check (option int)) (name ^ ": time") a.time b.time;
  Alcotest.(check (array int)) (name ^ ": trajectory") a.trajectory b.trajectory;
  Alcotest.(check (array int)) (name ^ ": arrivals") a.arrivals b.arrivals

(* Heap-vs-offheap Flood equality at the storage boundary (2^17 +- 1)
   and at chunk_nodes multiples +- 1, with the pool engaged — the
   parallel tiled scan must reproduce the heap rows' answer exactly. *)
let test_flood_layouts_agree_parallel () =
  let chunk = Graph.Storage.chunk_nodes in
  let sizes =
    [ chunk - 1; chunk; chunk + 1; Graph.Storage.offheap_nodes - 1;
      Graph.Storage.offheap_nodes; Graph.Storage.offheap_nodes + 1 ]
  in
  with_pool 4 (fun () ->
      List.iter
        (fun n ->
          (* The model itself stays partitioned off-heap at every size:
             a heap Classic sparse set is O(n^2) words, unpayable near
             2^17 nodes. Only the flood kernel's adjacency layout
             varies. *)
          let g = Edge_meg.Classic.make ~parts:64 ~n ~p:(4. /. float_of_int n) ~q:0.5 () in
          let heap =
            Core.Flooding.run ~cap:64 ~storage:`Heap ~rng:(seeded 42) ~source:0 g
          in
          let off =
            Core.Flooding.run ~cap:64 ~storage:`Offheap ~rng:(seeded 42) ~source:0 g
          in
          check_result (Printf.sprintf "n=%d" n) heap off)
        sizes)

(* The same off-heap run at 1, 2 and 4 workers: identical results, and
   the 1-worker case never engages the pool at all. *)
let test_flood_worker_count_invariance () =
  let n = Graph.Storage.offheap_nodes in
  let g = Edge_meg.Classic.make ~parts:64 ~n ~p:(4. /. float_of_int n) ~q:0.5 () in
  let run () = Core.Flooding.run ~cap:64 ~storage:`Offheap ~rng:(seeded 7) ~source:0 g in
  let r1 = with_pool 1 run in
  let r2 = with_pool 2 run in
  let r4 = with_pool 4 run in
  check_result "jobs 1 vs 2" r1 r2;
  check_result "jobs 1 vs 4" r1 r4

(* Fan-out gating: undersized tile counts stay sequential. Observed
   directly through [fan_out], and behaviourally by counting distinct
   domains that execute tiles. *)
let test_fan_out_gating () =
  with_pool ~tile_min:2 4 (fun () ->
      Alcotest.(check bool) "8 tiles at 4 workers fans out" true (Exec.Pool.fan_out 8);
      Alcotest.(check bool) "7 tiles stays sequential" false (Exec.Pool.fan_out 7);
      Alcotest.(check bool) "0 tiles stays sequential" false (Exec.Pool.fan_out 0);
      let caller = (Domain.self () :> int) in
      let doms = Array.make 7 (-1) in
      Exec.Pool.run_tiles 7 (fun i -> doms.(i) <- (Domain.self () :> int));
      Array.iteri
        (fun i d ->
          Alcotest.(check int) (Printf.sprintf "undersized tile %d on caller" i) caller d)
        doms);
  with_pool ~tile_min:1 1 (fun () ->
      Alcotest.(check bool) "1 worker never fans out" false (Exec.Pool.fan_out 1024))

(* Inside a pool worker (trial-level parallelism), run_tiles degrades to
   the sequential loop instead of nesting fan-outs. *)
let test_run_tiles_nested_sequential () =
  with_pool ~tile_min:1 4 (fun () ->
      let results =
        Exec.map (Exec.pool 2) ~jobs:2 (fun _ ->
            let caller = (Domain.self () :> int) in
            let ok = ref true in
            Exec.Pool.run_tiles 64 (fun _ ->
                if (Domain.self () :> int) <> caller then ok := false);
            !ok)
      in
      Array.iter (Alcotest.(check bool) "nested run_tiles stays on its worker" true) results)

(* A raising tile drains the pool (first exception wins, with its
   backtrace) and leaves it immediately reusable. *)
let test_run_tiles_failure_drains () =
  with_pool ~tile_min:1 4 (fun () ->
      (match Exec.Pool.run_tiles 64 (fun i -> if i = 13 then failwith "tile boom") with
      | () -> Alcotest.fail "expected run_tiles to raise"
      | exception Failure msg -> Alcotest.(check string) "message" "tile boom" msg);
      let hits = Array.make 64 0 in
      Exec.Pool.run_tiles 64 (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i h -> Alcotest.(check int) (Printf.sprintf "tile %d after failure" i) 1 h)
        hits)

(* Full observable trace of a dynamic model: initial snapshot, then per
   step the delta report and the new snapshot, rendered to a string so
   traces compare (and print on mismatch) wholesale. *)
let trace ?(steps = 5) ~seed g =
  Core.Dynamic.reset g (seeded seed);
  let buf = Buffer.create 4096 in
  let snap tag =
    Buffer.add_string buf tag;
    Core.Dynamic.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf " %d-%d" u v));
    Buffer.add_char buf '\n'
  in
  snap "E0:";
  for t = 1 to steps do
    Core.Dynamic.step g;
    Buffer.add_string buf (Printf.sprintf "d%d:" t);
    let ok =
      Core.Dynamic.deltas g
        ~birth:(fun u v -> Buffer.add_string buf (Printf.sprintf " +%d-%d" u v))
        ~death:(fun u v -> Buffer.add_string buf (Printf.sprintf " -%d-%d" u v))
    in
    Buffer.add_string buf (if ok then "\n" else " declined\n");
    snap (Printf.sprintf "E%d:" t)
  done;
  Buffer.contents buf

(* The partitioned Classic engine's results are a function of the seed
   alone: [parts] only regroups the 64 fixed strips into step tasks, so
   parts = 1 / 2 / 7 / 64 — spanning never-fans-out through
   one-strip-per-task — must yield identical delta streams and
   snapshots. *)
let test_classic_parts_independence () =
  let n = 512 in
  let mk parts = Edge_meg.Classic.make ~parts ~n ~p:(4. /. float_of_int n) ~q:0.3 () in
  with_pool ~tile_min:1 4 (fun () ->
      let ref_trace = trace ~seed:11 (mk 1) in
      List.iter
        (fun parts ->
          Alcotest.(check string)
            (Printf.sprintf "parts=%d" parts)
            ref_trace
            (trace ~seed:11 (mk parts)))
        [ 2; 7; 64 ])

(* Worker-count invariance for the partitioned engine: the same
   partitioned model traced under a 1-worker and a 3-worker pool. *)
let test_partitioned_worker_invariance () =
  let n = 512 in
  let classic () = Edge_meg.Classic.make ~parts:8 ~n ~p:(4. /. float_of_int n) ~q:0.3 () in
  let c1 = with_pool ~tile_min:1 1 (fun () -> trace ~seed:19 (classic ())) in
  let c3 = with_pool ~tile_min:1 3 (fun () -> trace ~seed:19 (classic ())) in
  Alcotest.(check string) "classic: 1 vs 3 workers" c1 c3

(* DYNGRAPH_TILE_MIN follows the warn-once env contract of
   DYNGRAPH_JOBS: unset or junk fall back to the default, a positive
   integer is honoured, and an explicit override beats the env. *)
let test_tile_min_env () =
  let saved = Sys.getenv_opt "DYNGRAPH_TILE_MIN" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DYNGRAPH_TILE_MIN" (Option.value ~default:"" saved);
      Exec.Pool.set_tile_min None)
  @@ fun () ->
  Unix.putenv "DYNGRAPH_TILE_MIN" "";
  Alcotest.(check int) "empty value ignored" 2 (Exec.Pool.tile_min ());
  Unix.putenv "DYNGRAPH_TILE_MIN" "notanumber";
  Alcotest.(check int) "unparsable value ignored" 2 (Exec.Pool.tile_min ());
  Unix.putenv "DYNGRAPH_TILE_MIN" "0";
  Alcotest.(check int) "non-positive value ignored" 2 (Exec.Pool.tile_min ());
  Unix.putenv "DYNGRAPH_TILE_MIN" " 5 ";
  Alcotest.(check int) "positive value honoured" 5 (Exec.Pool.tile_min ());
  Exec.Pool.set_tile_min (Some 3);
  Alcotest.(check int) "override beats env" 3 (Exec.Pool.tile_min ());
  Alcotest.check_raises "set_tile_min 0 rejected"
    (Invalid_argument "Exec.Pool.set_tile_min: must be >= 1") (fun () ->
      Exec.Pool.set_tile_min (Some 0));
  (* An undersized run under an env-raised tile_min stays sequential. *)
  Exec.Pool.set_tile_min None;
  Unix.putenv "DYNGRAPH_TILE_MIN" "64";
  Exec.Pool.set_workers 4;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_workers 1) @@ fun () ->
  Alcotest.(check bool) "255 tiles under tile_min=64*4" false (Exec.Pool.fan_out 255);
  let caller = (Domain.self () :> int) in
  Exec.Pool.run_tiles 255 (fun _ ->
      Alcotest.(check int) "undersized tile on caller" caller ((Domain.self () :> int)))

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "fan-out gating" `Quick test_fan_out_gating;
        Alcotest.test_case "nested stays sequential" `Quick test_run_tiles_nested_sequential;
        Alcotest.test_case "failure drains and reraises" `Quick test_run_tiles_failure_drains;
        Alcotest.test_case "DYNGRAPH_TILE_MIN parsing" `Quick test_tile_min_env;
      ] );
    ( "parallel.meg",
      [
        Alcotest.test_case "classic parts-independence" `Quick test_classic_parts_independence;
        Alcotest.test_case "worker-count invariance" `Quick test_partitioned_worker_invariance;
      ] );
    ( "parallel.flood",
      [
        Alcotest.test_case "heap = offheap at boundaries (pool engaged)" `Slow
          test_flood_layouts_agree_parallel;
        Alcotest.test_case "worker-count invariance" `Slow test_flood_worker_count_invariance;
      ] );
  ]
