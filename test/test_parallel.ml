(* Intra-run parallelism (DESIGN.md section 11): the tile pool and the
   kernels built on it must be byte-identical to their sequential
   counterparts at every worker count and across the partition
   boundaries. *)

let seeded k = Prng.Rng.of_seed k

(* Run each test body with the tile pool forced to [w] workers,
   restoring a quiescent pool (workers = 1) afterwards so the golden
   and determinism suites that follow never see a fan-out. *)
let with_pool w body =
  Exec.Pool.set_workers w;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_workers 1) body

let check_result name (a : Core.Flooding.result) (b : Core.Flooding.result) =
  Alcotest.(check (option int)) (name ^ ": time") a.time b.time;
  Alcotest.(check (array int)) (name ^ ": trajectory") a.trajectory b.trajectory;
  Alcotest.(check (array int)) (name ^ ": arrivals") a.arrivals b.arrivals

(* Every protocol on the partitioned off-heap edge-MEG at 2^17 nodes,
   with the model stepping on pools of 1, 2 and 4 workers: identical
   results, and the same row entries read and the same rebuild rounds
   (the 1-worker case never engages the pool at all). *)
let test_flood_worker_count_invariance () =
  let n = Graph.Storage.offheap_nodes in
  let g = Edge_meg.Classic.make ~parts:64 ~n ~p:(4. /. float_of_int n) ~q:0.5 () in
  List.iter
    (fun (name, protocol) ->
      let go w =
        with_pool w (fun () ->
            Helpers.with_counters (fun () ->
                Core.Flooding.run ~cap:64 ~protocol ~rng:(seeded 7) ~source:0 g))
      in
      let r1, c1 = go 1 in
      List.iter
        (fun w ->
          let r, c = go w in
          let label = Printf.sprintf "%s: jobs 1 vs %d" name w in
          check_result label r1 r;
          List.iter
            (fun key ->
              Alcotest.(check int) (label ^ ": " ^ key) (Helpers.count key c1)
                (Helpers.count key c))
            [ "flood.edges"; "flood.snapshots" ])
        [ 2; 4 ])
    [ ("flood", Core.Flooding.Flood); ("push", Core.Flooding.Push 0.4);
      ("parsimonious", Core.Flooding.Parsimonious 2) ]

(* Fan-out gating at two tiles per worker, observed through
   [run_tiles] alone: undersized tile counts and a one-worker pool keep
   every tile on the caller (tiles sleep 1 ms, so an engaged crew
   would take some), while 8 tiles at 4 workers reach a helper (the
   caller's tile waits, up to a deadline, for one to start). *)
let test_fan_out_gating () =
  let caller = (Domain.self () :> int) in
  let on_caller label w ntiles =
    with_pool w (fun () ->
        let doms = Array.make ntiles (-1) in
        Exec.Pool.run_tiles ntiles (fun i ->
            Unix.sleepf 0.001;
            doms.(i) <- (Domain.self () :> int));
        Array.iteri
          (fun i d ->
            Alcotest.(check int) (Printf.sprintf "%s: tile %d on caller" label i) caller d)
          doms)
  in
  on_caller "7 tiles at 4 workers" 4 7;
  on_caller "64 tiles at 1 worker" 1 64;
  with_pool 4 (fun () ->
      let helper_ran = Atomic.make false in
      let deadline = Unix.gettimeofday () +. 10. in
      Exec.Pool.run_tiles 8 (fun _ ->
          if (Domain.self () :> int) <> caller then Atomic.set helper_ran true
          else
            while (not (Atomic.get helper_ran)) && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done);
      Alcotest.(check bool) "8 tiles at 4 workers reach a helper" true (Atomic.get helper_ran))

(* Inside a pool worker (trial-level parallelism), run_tiles degrades to
   the sequential loop instead of nesting fan-outs. *)
let test_run_tiles_nested_sequential () =
  with_pool 4 (fun () ->
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
  with_pool 4 (fun () ->
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
   parts = 1 / 2 / 9 / 64 must yield identical delta streams and
   snapshots. At 4 workers the pool fans out from 8 tasks: 1 and 2
   stay on the caller, 9 steps uneven groups of 7 and 8 strips on the
   crew, and 64 steps one strip per task. *)
let test_classic_parts_independence () =
  let n = 512 in
  let mk parts = Edge_meg.Classic.make ~parts ~n ~p:(4. /. float_of_int n) ~q:0.3 () in
  with_pool 4 (fun () ->
      let ref_trace = trace ~seed:11 (mk 1) in
      List.iter
        (fun parts ->
          Alcotest.(check string)
            (Printf.sprintf "parts=%d" parts)
            ref_trace
            (trace ~seed:11 (mk parts)))
        [ 2; 9; 64 ])

(* Worker-count invariance for the partitioned engine: the same
   partitioned model traced under a 1-worker and a 3-worker pool. *)
let test_partitioned_worker_invariance () =
  let n = 512 in
  let classic () = Edge_meg.Classic.make ~parts:8 ~n ~p:(4. /. float_of_int n) ~q:0.3 () in
  let c1 = with_pool 1 (fun () -> trace ~seed:19 (classic ())) in
  let c3 = with_pool 3 (fun () -> trace ~seed:19 (classic ())) in
  Alcotest.(check string) "classic: 1 vs 3 workers" c1 c3

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "fan-out gating" `Quick test_fan_out_gating;
        Alcotest.test_case "nested stays sequential" `Quick test_run_tiles_nested_sequential;
        Alcotest.test_case "failure drains and reraises" `Quick test_run_tiles_failure_drains;
      ] );
    ( "parallel.meg",
      [
        Alcotest.test_case "classic parts-independence" `Quick test_classic_parts_independence;
        Alcotest.test_case "worker-count invariance" `Quick test_partitioned_worker_invariance;
      ] );
    ( "parallel.flood",
      [
        Alcotest.test_case "worker-count invariance" `Slow test_flood_worker_count_invariance;
      ] );
  ]
