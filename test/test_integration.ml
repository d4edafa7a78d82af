open Helpers

(* Cross-model integration matrix: every dynamic-graph model in the
   library must satisfy the same contract — valid snapshots, seed
   determinism, complete flooding within a generous cap, and flooding
   equal to a reference that enumerates every snapshot. Running the
   whole matrix catches regressions in any one model's wiring. *)

let models : (string * int * (unit -> Core.Dynamic.t)) list =
  let channel_chain k =
    let eps = 0.2 in
    let jump = eps /. float_of_int k in
    Markov.Chain.of_rows
      (Array.init k (fun s ->
           Array.append
             [| ((s + 1) mod k, 1. -. eps) |]
             (Array.init k (fun t -> (t, jump)))))
  in
  [
    ("edge-MEG classic", 48, fun () -> Edge_meg.Classic.make ~n:48 ~p:(3. /. 48.) ~q:0.4 ());
    ( "edge-MEG general 4-state",
      32,
      fun () ->
        let chain =
          Markov.Chain.of_rows
            (Array.init 4 (fun s -> [| (s, 0.7); ((s + 1) mod 4, 0.3) |]))
        in
        Edge_meg.General.make ~n:32 ~chain ~chi:(fun s -> s >= 2) () );
    ( "edge-MEG opportunistic",
      32,
      fun () ->
        Edge_meg.Opportunistic.make ~n:32
          {
            Edge_meg.Opportunistic.off_short = 2.;
            off_long = 10.;
            off_mix = 0.6;
            on_short = 1.;
            on_long = 4.;
            on_mix = 0.5;
          } );
    ( "node-MEG channels",
      40,
      fun () ->
        Node_meg.Model.make ~n:40
          (Node_meg.Model.space ~chain:(channel_chain 8) ~connect:(fun x y ->
               let d = abs (x - y) in
               min d (8 - d) <= 1)) );
    ( "waypoint square",
      40,
      fun () -> Mobility.Waypoint.dynamic ~n:40 ~l:6. ~r:1.5 ~v_min:1. ~v_max:1.25 () );
    ( "waypoint disk",
      40,
      fun () ->
        Mobility.Waypoint.dynamic ~region:Mobility.Waypoint.Disk ~n:40 ~l:7. ~r:1.5
          ~v_min:1. ~v_max:1.25 () );
    ( "waypoint steady+pause",
      40,
      fun () ->
        Mobility.Waypoint.dynamic ~init:Mobility.Waypoint.Steady ~pause:3 ~n:40 ~l:6.
          ~r:1.5 ~v_min:1. ~v_max:1.25 () );
    ( "manhattan",
      40,
      fun () -> Mobility.Manhattan.dynamic ~n:40 ~l:6. ~r:1.5 ~v_min:1. ~v_max:1.25 () );
    ( "random direction",
      40,
      fun () -> Mobility.Direction.dynamic ~n:40 ~l:6. ~r:1.5 ~v:1. ~turn_every:6. () );
    ( "random walk on grid (geometric)",
      40,
      fun () -> Mobility.Random_walk_model.dynamic ~n:40 ~m:8 ~r:1.5 () );
    ( "random paths, grid family",
      36,
      fun () ->
        Random_path.Rp_model.make ~hold:0.5 ~n:36
          ~family:(Random_path.Family.grid_shortest ~rows:6 ~cols:6)
          () );
    ( "random paths, BFS family on hypercube",
      32,
      fun () ->
        Random_path.Rp_model.make ~hold:0.5 ~n:32
          ~family:(Random_path.Family.shortest_paths (Graph.Builders.hypercube 4))
          () );
    ( "random walk on augmented grid",
      36,
      fun () ->
        Random_path.Rp_model.random_walk ~n:36
          (Graph.Builders.augmented_grid ~rows:6 ~cols:6 ~k:2) );
    ("random matching", 32, fun () -> Adversarial.Model.random_matching ~rng_hint:() ~n:32);
    ("rotating star", 24, fun () -> Adversarial.Model.rotating_star ~n:24);
    ("rotating matching", 32, fun () -> Adversarial.Model.rotating_matching ~n:32);
    ( "discrete waypoint node-MEG",
      24,
      fun () -> Mobility.Discrete_waypoint.(dynamic ~n:24 (build ~m:4 ~r:1.5)) );
    ( "filtered waypoint (virtual graph)",
      40,
      fun () ->
        Core.Dynamic.filter_edges ~p_keep:0.7
          (Mobility.Waypoint.dynamic ~n:40 ~l:6. ~r:1.5 ~v_min:1. ~v_max:1.25 ()) );
    ( "union of MEG and backbone",
      32,
      fun () ->
        Core.Dynamic.union
          (Edge_meg.Classic.make ~n:32 ~p:(2. /. 32.) ~q:0.4 ())
          (Core.Dynamic.of_static (Graph.Builders.cycle 32)) );
  ]

let snapshots_valid name n make () =
  let dyn = make () in
  Alcotest.(check int) (name ^ " node count") n (Core.Dynamic.n dyn);
  Core.Dynamic.reset dyn (rng_of_seed 1);
  for _ = 1 to 15 do
    Core.Dynamic.iter_edges dyn (fun u v ->
        check_true (name ^ " endpoints in range") (u >= 0 && u < n && v >= 0 && v < n);
        check_true (name ^ " no self loop") (u <> v));
    Core.Dynamic.step dyn
  done

let deterministic name make () =
  let run () =
    let dyn = make () in
    Core.Dynamic.reset dyn (rng_of_seed 2);
    let acc = ref [] in
    for _ = 1 to 10 do
      acc := Core.Dynamic.snapshot_edges dyn :: !acc;
      Core.Dynamic.step dyn
    done;
    !acc
  in
  check_true (name ^ " bit-reproducible") (run () = run ())

let floods name n make () =
  let cap = 5_000 + (400 * n) in
  match Core.Flooding.time ~cap ~rng:(rng_of_seed 3) ~source:0 (make ()) with
  | Some t -> check_true (name ^ " floods within cap") (t <= cap)
  | None -> Alcotest.failf "%s did not flood within %d steps" name cap

(* A test-side flooding reference: reset with the same split as
   [Flooding.run], then I_{t+1} = I_t ∪ N_{E_t}(I_t) over each
   snapshot's edge list. *)
let reference_flood ~cap ~seed g =
  let module D = Core.Dynamic in
  let n = D.n g in
  D.reset g (Prng.Rng.split (rng_of_seed seed));
  let arrivals = Array.make n (-1) in
  arrivals.(0) <- 0;
  let informed = ref 1 and t = ref 0 and trajectory = ref [ 1 ] in
  while !informed < n && !t < cap do
    let reached = ref [] in
    List.iter
      (fun (u, v) ->
        if arrivals.(u) >= 0 && arrivals.(v) < 0 then reached := v :: !reached;
        if arrivals.(v) >= 0 && arrivals.(u) < 0 then reached := u :: !reached)
      (D.snapshot_edges g);
    incr t;
    List.iter
      (fun v ->
        if arrivals.(v) < 0 then begin
          arrivals.(v) <- !t;
          incr informed
        end)
      !reached;
    trajectory := !informed :: !trajectory;
    D.step g
  done;
  ( (if !informed = n then Some !t else None),
    Array.of_list (List.rev !trajectory),
    arrivals )

let matches_reference name n make () =
  let cap = 5_000 + (400 * n) in
  List.iter
    (fun seed ->
      let label = Printf.sprintf "%s seed %d" name seed in
      let r = Core.Flooding.run ~cap ~rng:(rng_of_seed seed) ~source:0 (make ()) in
      let time, trajectory, arrivals = reference_flood ~cap ~seed (make ()) in
      Alcotest.(check (option int)) (label ^ ": time") time r.time;
      Alcotest.(check (array int)) (label ^ ": trajectory") trajectory r.trajectory;
      Alcotest.(check (array int)) (label ^ ": arrivals") arrivals r.arrivals)
    [ 3; 11 ]

let suites =
  [
    ( "integration.snapshots",
      List.map
        (fun (name, n, make) -> Alcotest.test_case name `Quick (snapshots_valid name n make))
        models );
    ( "integration.determinism",
      List.map
        (fun (name, _, make) -> Alcotest.test_case name `Quick (deterministic name make))
        models );
    ( "integration.flooding",
      List.map (fun (name, n, make) -> Alcotest.test_case name `Quick (floods name n make)) models
    );
    ( "integration.flood_reference",
      List.map
        (fun (name, n, make) -> Alcotest.test_case name `Quick (matches_reference name n make))
        models );
  ]
