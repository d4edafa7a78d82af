open Helpers

(* --- Dynamic --- *)

let test_of_static_constant () =
  let g = Graph.Builders.cycle 5 in
  let dyn = Core.Dynamic.of_static g in
  Core.Dynamic.reset dyn (rng_of_seed 0);
  let before = Core.Dynamic.snapshot_edges dyn in
  Core.Dynamic.step dyn;
  Alcotest.(check (list (pair int int))) "constant" before (Core.Dynamic.snapshot_edges dyn);
  Alcotest.(check int) "edge count" 5 (Core.Dynamic.edge_count dyn)

let test_of_snapshots_cycles () =
  let dyn = Core.Dynamic.of_snapshots ~n:3 [| [ (0, 1) ]; [ (1, 2) ] |] in
  Core.Dynamic.reset dyn (rng_of_seed 0);
  Alcotest.(check (list (pair int int))) "t0" [ (0, 1) ] (Core.Dynamic.snapshot_edges dyn);
  Core.Dynamic.step dyn;
  Alcotest.(check (list (pair int int))) "t1" [ (1, 2) ] (Core.Dynamic.snapshot_edges dyn);
  Core.Dynamic.step dyn;
  Alcotest.(check (list (pair int int))) "wraps" [ (0, 1) ] (Core.Dynamic.snapshot_edges dyn);
  Core.Dynamic.reset dyn (rng_of_seed 0);
  Alcotest.(check (list (pair int int))) "reset restarts" [ (0, 1) ]
    (Core.Dynamic.snapshot_edges dyn)

(* Snapshots are validated up front, as [Static.of_edges] does, not
   when a consumer first reads them. *)
let test_of_snapshots_validation () =
  let build snaps () = ignore (Core.Dynamic.of_snapshots ~n:3 snaps) in
  check_true "endpoint >= n rejected" (raises_invalid (build [| [ (0, 1) ]; [ (1, 3) ] |]));
  check_true "negative endpoint rejected" (raises_invalid (build [| [ (-1, 1) ] |]));
  check_true "self-loop rejected" (raises_invalid (build [| []; [ (2, 2) ] |]))

(* A model reporting a node id outside [0, n) raises under every
   protocol instead of reading or writing past the kernel's bitsets,
   and so does the boundary hook [Dynamic.make] derives for it. *)
let test_out_of_range_endpoint () =
  let g () =
    Core.Dynamic.make ~n:3 ~reset:ignore ~step:ignore
      ~iter_edges:(fun f ->
        f 0 1;
        f 1 100_000)
      ()
  in
  List.iter
    (fun (name, protocol) ->
      check_true (name ^ " raises")
        (raises_invalid (fun () ->
             ignore (Core.Flooding.run ~protocol ~rng:(rng_of_seed 1) ~source:0 (g ())))))
    [
      ("Flood", Core.Flooding.Flood);
      ("Push", Core.Flooding.Push 0.5);
      ("Parsimonious", Core.Flooding.Parsimonious 2);
    ];
  let inside = Graph.Storage.Bitset.create 3 in
  Graph.Storage.Bitset.set inside 0;
  check_true "derived boundary raises"
    (raises_invalid (fun () -> ignore (Core.Dynamic.boundary (g ()) inside ignore)));
  check_true "negative id raises"
    (raises_invalid (fun () ->
         let g =
           Core.Dynamic.make ~n:3 ~reset:ignore ~step:ignore ~iter_edges:(fun f -> f (-1) 0) ()
         in
         ignore (Core.Flooding.run ~protocol:(Push 0.5) ~rng:(rng_of_seed 1) ~source:0 g)));
  check_true "wrong-length inside raises"
    (raises_invalid (fun () ->
         ignore (Core.Dynamic.boundary (g ()) (Graph.Storage.Bitset.create 4) ignore)))

let test_isolated_fraction () =
  let dyn = Core.Dynamic.of_snapshots ~n:4 [| [ (0, 1) ] |] in
  Core.Dynamic.reset dyn (rng_of_seed 0);
  check_close "half isolated" 0.5 (Core.Dynamic.isolated_fraction dyn)

let test_adjacency_symmetric () =
  let dyn = Core.Dynamic.of_static (Graph.Builders.star 4) in
  Core.Dynamic.reset dyn (rng_of_seed 0);
  let adj = Core.Dynamic.adjacency dyn in
  Alcotest.(check int) "centre degree" 3 (List.length adj.(0));
  Alcotest.(check (list int)) "leaf sees centre" [ 0 ] adj.(1)

let test_snapshot_graph () =
  let dyn = Core.Dynamic.of_static (Graph.Builders.complete 4) in
  Core.Dynamic.reset dyn (rng_of_seed 0);
  Alcotest.(check int) "materialised m" 6 (Graph.Static.m (Core.Dynamic.snapshot_graph dyn))

let test_filter_extremes () =
  let inner () = Core.Dynamic.of_static (Graph.Builders.complete 6) in
  let keep_all = Core.Dynamic.filter_edges ~p_keep:1. (inner ()) in
  Core.Dynamic.reset keep_all (rng_of_seed 1);
  Alcotest.(check int) "p=1 keeps all" 15 (Core.Dynamic.edge_count keep_all);
  let keep_none = Core.Dynamic.filter_edges ~p_keep:0. (inner ()) in
  Core.Dynamic.reset keep_none (rng_of_seed 1);
  Alcotest.(check int) "p=0 drops all" 0 (Core.Dynamic.edge_count keep_none)

let test_filter_stable_within_step () =
  let dyn = Core.Dynamic.filter_edges ~p_keep:0.5 (Core.Dynamic.of_static (Graph.Builders.complete 10)) in
  Core.Dynamic.reset dyn (rng_of_seed 2);
  let a = Core.Dynamic.snapshot_edges dyn in
  let b = Core.Dynamic.snapshot_edges dyn in
  Alcotest.(check (list (pair int int))) "two reads agree" a b;
  Core.Dynamic.step dyn;
  let c = Core.Dynamic.snapshot_edges dyn in
  check_true "fresh coins after step" (a <> c || a = c)

let test_filter_fresh_randomness_across_steps () =
  let dyn =
    Core.Dynamic.filter_edges ~p_keep:0.5 (Core.Dynamic.of_static (Graph.Builders.complete 12))
  in
  Core.Dynamic.reset dyn (rng_of_seed 3);
  let snaps = Array.init 6 (fun _ ->
      let s = Core.Dynamic.snapshot_edges dyn in
      Core.Dynamic.step dyn;
      s)
  in
  let all_equal = Array.for_all (fun s -> s = snaps.(0)) snaps in
  check_true "snapshots vary across steps" (not all_equal)

let test_subsample () =
  let dyn =
    Core.Dynamic.of_snapshots ~n:3 [| [ (0, 1) ]; [ (1, 2) ]; [ (0, 2) ]; [] |]
  in
  let coarse = Core.Dynamic.subsample ~every:2 dyn in
  Core.Dynamic.reset coarse (rng_of_seed 20);
  Alcotest.(check (list (pair int int))) "epoch 0" [ (0, 1) ] (Core.Dynamic.snapshot_edges coarse);
  Core.Dynamic.step coarse;
  Alcotest.(check (list (pair int int))) "epoch 1 skips one" [ (0, 2) ]
    (Core.Dynamic.snapshot_edges coarse)

let test_subsample_validation () =
  let dyn = Core.Dynamic.of_static (Graph.Builders.cycle 4) in
  check_true "every = 0 rejected"
    (try
       ignore (Core.Dynamic.subsample ~every:0 dyn);
       false
     with Invalid_argument _ -> true)

let test_subsample_flooding_dominates () =
  (* Epoch-sampled flooding (in steps) upper-bounds per-step flooding. *)
  let m = 4 in
  let make () = Edge_meg.Classic.make ~n:48 ~p:(2. /. 48.) ~q:0.4 () in
  let fine = Core.Flooding.mean_time ~rng:(rng_of_seed 21) ~trials:10 make in
  let coarse =
    Core.Flooding.mean_time ~rng:(rng_of_seed 22) ~trials:10 (fun () ->
        Core.Dynamic.subsample ~every:m (make ()))
  in
  check_true "coarse * m >= fine (statistically)"
    (Stats.Summary.mean coarse *. float_of_int m
    >= Stats.Summary.mean fine -. Stats.Summary.stddev fine)

let test_union () =
  let a = Core.Dynamic.of_snapshots ~n:4 [| [ (0, 1) ] |] in
  let b = Core.Dynamic.of_snapshots ~n:4 [| [ (2, 3) ] |] in
  let u = Core.Dynamic.union a b in
  Core.Dynamic.reset u (rng_of_seed 4);
  Alcotest.(check (list (pair int int))) "union edges" [ (0, 1); (2, 3) ]
    (Core.Dynamic.snapshot_edges u)

let test_union_mismatch () =
  let a = Core.Dynamic.of_snapshots ~n:3 [| [] |] in
  let b = Core.Dynamic.of_snapshots ~n:4 [| [] |] in
  check_true "node-count mismatch raises"
    (try
       ignore (Core.Dynamic.union a b);
       false
     with Invalid_argument _ -> true)

(* --- Flooding --- *)

let flood_static ?protocol ?cap g source =
  Core.Flooding.run ?cap ?protocol ~rng:(rng_of_seed 5) ~source (Core.Dynamic.of_static g)

let test_flood_complete_one_step () =
  let r = flood_static (Graph.Builders.complete 10) 0 in
  Alcotest.(check (option int)) "one step" (Some 1) r.time

let test_flood_path_takes_eccentricity () =
  let r = flood_static (Graph.Builders.path_graph 7) 0 in
  Alcotest.(check (option int)) "6 steps from end" (Some 6) r.time;
  let r_mid = flood_static (Graph.Builders.path_graph 7) 3 in
  Alcotest.(check (option int)) "3 steps from middle" (Some 3) r_mid.time

let test_flood_trajectory_shape () =
  let r = flood_static (Graph.Builders.path_graph 5) 0 in
  Alcotest.(check (array int)) "trajectory" [| 1; 2; 3; 4; 5 |] r.trajectory

let test_flood_single_node () =
  let g = Graph.Static.of_edges ~n:1 [] in
  let r = flood_static g 0 in
  Alcotest.(check (option int)) "already done" (Some 0) r.time

let test_flood_cap () =
  let g = Graph.Static.of_edges ~n:3 [ (0, 1) ] in
  let r = flood_static ~cap:50 g 0 in
  Alcotest.(check (option int)) "unreachable gives None" None r.time;
  Alcotest.(check int) "stuck at 2" 2 r.trajectory.(Array.length r.trajectory - 1)

let test_flood_source_validation () =
  check_true "bad source raises"
    (try
       ignore (flood_static (Graph.Builders.cycle 4) 9);
       false
     with Invalid_argument _ -> true)

let test_flood_uses_current_snapshot () =
  (* Edge (0,1) exists only at t=0, (1,2) only at t=1: flooding must ride
     the schedule and finish in exactly 2 steps. *)
  let dyn = Core.Dynamic.of_snapshots ~n:3 [| [ (0, 1) ]; [ (1, 2) ]; [] |] in
  let r = Core.Flooding.run ~rng:(rng_of_seed 6) ~source:0 dyn in
  Alcotest.(check (option int)) "rides the schedule" (Some 2) r.time

let test_flood_misses_expired_edge () =
  (* The (1,2) edge exists at t=0, before node 1 knows anything; node 2
     is only reached when the cyclic schedule brings the edge back at
     t=3 — one hop per snapshot, no retroactive use of past edges. *)
  let dyn = Core.Dynamic.of_snapshots ~n:3 [| [ (1, 2) ]; [ (0, 1) ]; [] |] in
  let r = Core.Flooding.run ~cap:30 ~rng:(rng_of_seed 7) ~source:0 dyn in
  Alcotest.(check (option int)) "needs the next cycle" (Some 4) r.time

let test_arrivals_are_bfs_on_static () =
  (* On a static graph, arrival times are exactly BFS distances. *)
  let g = Graph.Builders.grid ~rows:3 ~cols:4 in
  let r = flood_static g 5 in
  Alcotest.(check (array int)) "arrivals = BFS" (Graph.Traverse.bfs_distances g 5) r.arrivals

let test_arrivals_unreachable () =
  let g = Graph.Static.of_edges ~n:3 [ (0, 1) ] in
  let r = flood_static ~cap:20 g 0 in
  Alcotest.(check int) "source at 0" 0 r.arrivals.(0);
  Alcotest.(check int) "neighbour at 1" 1 r.arrivals.(1);
  Alcotest.(check int) "never informed is -1" (-1) r.arrivals.(2)

let test_characteristic_time () =
  let g = Graph.Builders.path_graph 5 in
  let r = flood_static g 0 in
  (* Arrivals 0,1,2,3,4: mean over non-source = 2.5. *)
  check_close "mean latency on path" 2.5 (Core.Flooding.characteristic_time r);
  check_true "characteristic <= worst case"
    (Core.Flooding.characteristic_time r <= float_of_int (Option.get r.time))

let test_arrivals_consistent_with_trajectory () =
  let dyn = Edge_meg.Classic.make ~n:40 ~p:0.08 ~q:0.3 () in
  let r = Core.Flooding.run ~rng:(rng_of_seed 16) ~source:0 dyn in
  (* |I_t| must equal the number of arrivals <= t. *)
  Array.iteri
    (fun t size ->
      let by_t =
        Array.fold_left (fun acc a -> if a >= 0 && a <= t then acc + 1 else acc) 0 r.arrivals
      in
      Alcotest.(check int) (Printf.sprintf "census at t=%d" t) size by_t)
    r.trajectory

let q_trajectory_monotone =
  qtest ~count:50 "trajectory is monotone, starts at 1"
    QCheck2.Gen.(pair seed_gen (int_range 2 20))
    (fun (seed, n) ->
      let rng = Prng.Rng.of_seed seed in
      let p = Float.min 1. (2.5 /. float_of_int n) in
      let dyn = Edge_meg.Classic.make ~n ~p ~q:0.4 () in
      let r = Core.Flooding.run ~cap:500 ~rng ~source:0 dyn in
      r.trajectory.(0) = 1
      &&
      let mono = ref true in
      Array.iteri
        (fun i v ->
          if i > 0 && v < r.trajectory.(i - 1) then mono := false;
          if v < 1 || v > n then mono := false)
        r.trajectory;
      !mono)

let q_flood_time_is_eccentricity =
  qtest ~count:60 "static flooding time = source eccentricity"
    QCheck2.Gen.(pair seed_gen (int_range 2 25))
    (fun (seed, n) ->
      let rng = Prng.Rng.of_seed seed in
      let rec connected_graph () =
        let g = Graph.Builders.erdos_renyi ~rng ~n ~p:0.3 in
        if Graph.Traverse.is_connected g then g else connected_graph ()
      in
      let g = connected_graph () in
      let source = Prng.Rng.int rng n in
      let r = Core.Flooding.run ~rng ~source (Core.Dynamic.of_static g) in
      r.time = Some (Graph.Traverse.eccentricity g source))

let q_adjacency_consistent_with_edge_count =
  qtest ~count:40 "adjacency degree sum = 2 * edge count"
    QCheck2.Gen.(pair seed_gen (int_range 2 30))
    (fun (seed, n) ->
      let dyn = Edge_meg.Classic.make ~n ~p:0.2 ~q:0.3 () in
      Core.Dynamic.reset dyn (Prng.Rng.of_seed seed);
      Core.Dynamic.step dyn;
      let adj = Core.Dynamic.adjacency dyn in
      let degree_sum = Array.fold_left (fun acc l -> acc + List.length l) 0 adj in
      degree_sum = 2 * Core.Dynamic.edge_count dyn)

let q_time_matches_trajectory =
  qtest ~count:50 "completion time = trajectory length - 1"
    QCheck2.Gen.(pair seed_gen (int_range 2 16))
    (fun (seed, n) ->
      let rng = Prng.Rng.of_seed seed in
      let dyn = Core.Dynamic.of_static (Graph.Builders.complete n) in
      let r = Core.Flooding.run ~rng ~source:0 dyn in
      match r.time with
      | Some t ->
          Array.length r.trajectory = t + 1 && r.trajectory.(t) = n
      | None -> false)

let test_push_p1_equals_flood () =
  let g = Graph.Builders.path_graph 6 in
  let full = flood_static g 0 in
  let push = flood_static ~protocol:(Core.Flooding.Push 1.) g 0 in
  Alcotest.(check (option int)) "push 1.0 = flood" full.time push.time

let test_push_validation () =
  check_true "p=0 rejected"
    (try
       ignore (flood_static ~protocol:(Core.Flooding.Push 0.) (Graph.Builders.cycle 4) 0);
       false
     with Invalid_argument _ -> true)

let test_push_slower_on_average () =
  let n = 40 in
  let dyn () = Core.Dynamic.of_static (Graph.Builders.complete n) in
  let full = Core.Flooding.mean_time ~rng:(rng_of_seed 8) ~trials:20 dyn in
  let push =
    Core.Flooding.mean_time ~protocol:(Core.Flooding.Push 0.1) ~rng:(rng_of_seed 9) ~trials:20 dyn
  in
  check_true "push 0.1 slower" (Stats.Summary.mean push > Stats.Summary.mean full)

let test_parsimonious_window () =
  (* On a path with window 1, each node forwards only on the step right
     after it learns; on a static path that is exactly enough. *)
  let g = Graph.Builders.path_graph 5 in
  let r = flood_static ~protocol:(Core.Flooding.Parsimonious 1) g 0 in
  Alcotest.(check (option int)) "parsimonious on path" (Some 4) r.time

let test_parsimonious_expires () =
  (* Snapshot schedule: nothing at t=1..2, edge (1,2) at t=3. With window
     1, node 1 (informed at t=1) is inactive by then. *)
  let dyn =
    Core.Dynamic.of_snapshots ~n:3 [| [ (0, 1) ]; []; []; [ (1, 2) ]; [] |]
  in
  let r =
    Core.Flooding.run ~cap:20 ~protocol:(Core.Flooding.Parsimonious 1) ~rng:(rng_of_seed 10)
      ~source:0 dyn
  in
  Alcotest.(check (option int)) "expired sender" None r.time;
  let r_full = Core.Flooding.run ~cap:20 ~rng:(rng_of_seed 10) ~source:0 dyn in
  Alcotest.(check (option int)) "plain flooding succeeds" (Some 4) r_full.time

let test_parsimonious_validation () =
  check_true "window 0 rejected"
    (try
       ignore (flood_static ~protocol:(Core.Flooding.Parsimonious 0) (Graph.Builders.cycle 4) 0);
       false
     with Invalid_argument _ -> true)

let test_mean_time_deterministic () =
  let dyn () = Edge_meg.Classic.make ~n:32 ~p:0.1 ~q:0.3 () in
  let a = Core.Flooding.mean_time ~rng:(rng_of_seed 11) ~trials:5 dyn in
  let b = Core.Flooding.mean_time ~rng:(rng_of_seed 11) ~trials:5 dyn in
  check_close "same seed, same mean" (Stats.Summary.mean a) (Stats.Summary.mean b)

let test_worst_source_path () =
  let dyn () = Core.Dynamic.of_static (Graph.Builders.path_graph 6) in
  Alcotest.(check int) "worst source on path" 5
    (Core.Flooding.worst_source_time ~rng:(rng_of_seed 12) dyn);
  Alcotest.(check int) "restricted sources" 3
    (Core.Flooding.worst_source_time ~rng:(rng_of_seed 12) ~sources:[ 2; 3 ] dyn)

(* --- Stationarity --- *)

let test_stationarity_complete () =
  let dyn = Core.Dynamic.of_static (Graph.Builders.complete 12) in
  let est =
    Core.Stationarity.estimate ~rng:(rng_of_seed 13) ~burn_in:5 ~snapshots:40 ~gap:1 ~pairs:10
      ~triples:5 ~set_size:3 dyn
  in
  check_close "alpha on complete" 1. est.alpha_hat;
  check_close "beta on complete" 1. est.beta_hat;
  check_close "no isolation" 0. est.isolated_mean

let test_stationarity_edge_meg_alpha () =
  let n = 64 in
  let p = 0.1 and q = 0.1 in
  let dyn = Edge_meg.Classic.make ~n ~p ~q () in
  let est =
    Core.Stationarity.estimate ~rng:(rng_of_seed 14) ~burn_in:50 ~snapshots:400 ~gap:11
      ~pairs:20 ~triples:10 ~set_size:6 dyn
  in
  (* Independent edges: alpha = p/(p+q) = 1/2, beta = 1. *)
  check_close_rel ~rel:0.25 "alpha near 1/2" 0.5 est.alpha_mean;
  check_true "beta near 1" (est.beta_hat < 1.5)

let test_stationarity_set_size_validation () =
  let dyn = Core.Dynamic.of_static (Graph.Builders.complete 5) in
  check_true "set size too large raises"
    (try
       ignore (Core.Stationarity.estimate ~rng:(rng_of_seed 15) ~set_size:5 dyn);
       false
     with Invalid_argument _ -> true)

let test_check_theorem1_bound () =
  let r = Core.Stationarity.check_theorem1_bound ~measured:10. ~m:1 ~alpha:0.5 ~beta:1. ~n:100 in
  check_true "ratio positive and finite" (r > 0. && Float.is_finite r)

(* --- Phases --- *)

let test_time_to_reach () =
  let tr = [| 1; 1; 3; 8; 8; 16 |] in
  Alcotest.(check (option int)) "reach 3" (Some 2) (Core.Phases.time_to_reach tr 3);
  Alcotest.(check (option int)) "reach 4" (Some 3) (Core.Phases.time_to_reach tr 4);
  Alcotest.(check (option int)) "unreached" None (Core.Phases.time_to_reach tr 17)

let test_phases_analysis () =
  let n = 16 in
  let tr = [| 1; 2; 4; 8; 12; 15; 16 |] in
  let a = Core.Phases.analyze ~n tr in
  Alcotest.(check (option int)) "spreading to n/2" (Some 3) a.spreading_time;
  Alcotest.(check (option int)) "saturation" (Some 3) a.saturation_time;
  Alcotest.(check (option int)) "doubling gap" (Some 1) a.max_doubling_gap;
  Alcotest.(check int) "doubling count" 5 (List.length a.doubling_times)

let test_phases_incomplete () =
  let a = Core.Phases.analyze ~n:10 [| 1; 2; 3 |] in
  Alcotest.(check (option int)) "no spread" None a.spreading_time;
  Alcotest.(check (option int)) "no saturation" None a.saturation_time

(* --- storage-layer regressions --- *)

(* The trajectory buffer must grow past its initial 256 cells (a fixed
   Array.make 256 once made >256-round runs impossible to record). A
   2-node process whose only edge appears every 301st snapshot floods
   well past round 256. *)
let test_flood_trajectory_growth () =
  let snaps = Array.init 301 (fun t -> if t = 300 then [ (0, 1) ] else []) in
  let g = Core.Dynamic.of_snapshots ~n:2 snaps in
  let r = Core.Flooding.run ~rng:(rng_of_seed 3) ~source:0 g in
  match r.Core.Flooding.time with
  | None -> Alcotest.fail "flood never completed"
  | Some t ->
      check_true "ran past the old 256-cell cap" (t > 256);
      Alcotest.(check int) "trajectory records every round" (t + 1)
        (Array.length r.Core.Flooding.trajectory);
      Alcotest.(check int) "final census" 2 r.Core.Flooding.trajectory.(t);
      Alcotest.(check int) "source alone before the edge" 1 r.Core.Flooding.trajectory.(t - 1)

(* n = 0 is rejected at construction (Dynamic.make), so flooding can
   never receive an empty node set; a negative/overflowing source on
   the smallest legal graph is rejected by the flooding guard. *)
let test_flood_empty_graph () =
  check_true "n = 0 rejected at construction"
    (try
       ignore (Core.Dynamic.of_snapshots ~n:0 [| [] |]);
       false
     with Invalid_argument _ -> true);
  let g = Core.Dynamic.of_snapshots ~n:1 [| [] |] in
  check_true "source beyond n rejected"
    (try
       ignore (Core.Flooding.run ~rng:(rng_of_seed 1) ~source:1 g);
       false
     with Invalid_argument _ -> true);
  check_true "negative source rejected"
    (try
       ignore (Core.Flooding.run ~rng:(rng_of_seed 1) ~source:(-1) g);
       false
     with Invalid_argument _ -> true)

(* A negative cap is rejected by every entry point that runs a flood,
   rather than reported as an unfinished run or a negative mean. *)
let test_flood_negative_cap () =
  let dyn () = Core.Dynamic.of_static (Graph.Builders.path_graph 4) in
  let rng = rng_of_seed 1 in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Flooding.run: cap must be >= 0") (fun () ->
        ignore (f ()))
  in
  raises "run" (fun () -> Core.Flooding.run ~cap:(-5) ~rng ~source:0 (dyn ()));
  raises "time" (fun () -> Core.Flooding.time ~cap:(-5) ~rng ~source:0 (dyn ()));
  raises "trial_time" (fun () -> Core.Flooding.trial_time ~cap:(-5) ~rng ~source:0 (dyn ()));
  raises "mean_time" (fun () -> Core.Flooding.mean_time ~cap:(-5) ~rng ~trials:3 dyn);
  raises "worst_source_time" (fun () -> Core.Flooding.worst_source_time ~cap:(-5) ~rng dyn);
  Alcotest.(check (option int)) "cap 0 is a legal, unfinished run" None
    (Core.Flooding.time ~cap:0 ~rng ~source:0 (dyn ()))

(* Push and Parsimonious on a model without deltas read each round's
   snapshot through exactly one [iter_edges] call: the calls equal the
   rounds and [flood.snapshots], and [flood.edges] counts the edges
   those calls visited. *)
let test_enumeration_reads_each_round_once () =
  List.iter
    (fun (name, protocol) ->
      let inner = Edge_meg.Classic.make ~n:24 ~p:0.08 ~q:0.4 () in
      let calls = ref 0 and visited = ref 0 in
      let g =
        Core.Dynamic.make ~n:24
          ~reset:(Core.Dynamic.reset inner)
          ~step:(fun () -> Core.Dynamic.step inner)
          ~iter_edges:(fun f ->
            incr calls;
            Core.Dynamic.iter_edges inner (fun u v ->
                incr visited;
                f u v))
          ()
      in
      let r, counters =
        with_counters (fun () -> Core.Flooding.run ~protocol ~rng:(rng_of_seed 12) ~source:0 g)
      in
      let rounds = Array.length r.trajectory - 1 in
      check_true (name ^ " finished") (r.time = Some rounds);
      Alcotest.(check int) (name ^ " one call per round") rounds !calls;
      Alcotest.(check int) (name ^ " flood.rounds") rounds (count "flood.rounds" counters);
      Alcotest.(check int) (name ^ " flood.snapshots") !calls (count "flood.snapshots" counters);
      Alcotest.(check int) (name ^ " flood.edges") !visited (count "flood.edges" counters))
    [ ("Push", Core.Flooding.Push 0.5); ("Parsimonious", Core.Flooding.Parsimonious 3) ]

(* The worst case over no sources is undefined, not 0. *)
let test_worst_source_empty () =
  Alcotest.check_raises "empty sources rejected"
    (Invalid_argument "Flooding.worst_source_time: sources must be non-empty") (fun () ->
      ignore
        (Core.Flooding.worst_source_time ~rng:(rng_of_seed 1) ~sources:[]
           (fun () -> Core.Dynamic.of_static (Graph.Builders.path_graph 4))))

let suites =
  [
    ( "core.dynamic",
      [
        Alcotest.test_case "of_static constant" `Quick test_of_static_constant;
        Alcotest.test_case "of_snapshots cycles" `Quick test_of_snapshots_cycles;
        Alcotest.test_case "of_snapshots validation" `Quick test_of_snapshots_validation;
        Alcotest.test_case "out-of-range endpoint" `Quick test_out_of_range_endpoint;
        Alcotest.test_case "isolated fraction" `Quick test_isolated_fraction;
        Alcotest.test_case "adjacency" `Quick test_adjacency_symmetric;
        Alcotest.test_case "snapshot graph" `Quick test_snapshot_graph;
        Alcotest.test_case "filter extremes" `Quick test_filter_extremes;
        Alcotest.test_case "filter stable within step" `Quick test_filter_stable_within_step;
        Alcotest.test_case "filter varies across steps" `Quick
          test_filter_fresh_randomness_across_steps;
        Alcotest.test_case "union" `Quick test_union;
        Alcotest.test_case "union mismatch" `Quick test_union_mismatch;
        Alcotest.test_case "subsample" `Quick test_subsample;
        Alcotest.test_case "subsample validation" `Quick test_subsample_validation;
        Alcotest.test_case "subsample flooding dominates" `Quick
          test_subsample_flooding_dominates;
      ] );
    ( "core.flooding",
      [
        Alcotest.test_case "complete in one step" `Quick test_flood_complete_one_step;
        Alcotest.test_case "path eccentricity" `Quick test_flood_path_takes_eccentricity;
        Alcotest.test_case "trajectory shape" `Quick test_flood_trajectory_shape;
        Alcotest.test_case "single node" `Quick test_flood_single_node;
        Alcotest.test_case "cap" `Quick test_flood_cap;
        Alcotest.test_case "source validation" `Quick test_flood_source_validation;
        Alcotest.test_case "rides snapshot schedule" `Quick test_flood_uses_current_snapshot;
        Alcotest.test_case "misses expired edge" `Quick test_flood_misses_expired_edge;
        Alcotest.test_case "push p=1 equals flood" `Quick test_push_p1_equals_flood;
        Alcotest.test_case "push validation" `Quick test_push_validation;
        Alcotest.test_case "push slower" `Quick test_push_slower_on_average;
        Alcotest.test_case "parsimonious on path" `Quick test_parsimonious_window;
        Alcotest.test_case "parsimonious expiry" `Quick test_parsimonious_expires;
        Alcotest.test_case "parsimonious validation" `Quick test_parsimonious_validation;
        Alcotest.test_case "mean_time deterministic" `Quick test_mean_time_deterministic;
        Alcotest.test_case "worst source" `Quick test_worst_source_path;
        Alcotest.test_case "worst source needs sources" `Quick test_worst_source_empty;
        Alcotest.test_case "negative cap rejected" `Quick test_flood_negative_cap;
        Alcotest.test_case "enumeration reads each round once" `Quick
          test_enumeration_reads_each_round_once;
        Alcotest.test_case "characteristic time" `Quick test_characteristic_time;
        Alcotest.test_case "arrivals = BFS on static" `Quick test_arrivals_are_bfs_on_static;
        Alcotest.test_case "arrivals unreachable" `Quick test_arrivals_unreachable;
        Alcotest.test_case "trajectory grows past 256 rounds" `Quick
          test_flood_trajectory_growth;
        Alcotest.test_case "empty graph rejected" `Quick test_flood_empty_graph;
        Alcotest.test_case "arrivals vs trajectory census" `Quick
          test_arrivals_consistent_with_trajectory;
        q_trajectory_monotone;
        q_time_matches_trajectory;
        q_flood_time_is_eccentricity;
        q_adjacency_consistent_with_edge_count;
      ] );
    ( "core.stationarity",
      [
        Alcotest.test_case "complete graph" `Quick test_stationarity_complete;
        Alcotest.test_case "edge-MEG alpha" `Quick test_stationarity_edge_meg_alpha;
        Alcotest.test_case "set size validation" `Quick test_stationarity_set_size_validation;
        Alcotest.test_case "theorem1 ratio" `Quick test_check_theorem1_bound;
      ] );
    ( "core.phases",
      [
        Alcotest.test_case "time_to_reach" `Quick test_time_to_reach;
        Alcotest.test_case "analysis" `Quick test_phases_analysis;
        Alcotest.test_case "incomplete run" `Quick test_phases_incomplete;
      ] );
  ]
