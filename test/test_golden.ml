open Helpers

(* Golden flooding results: exact trajectories, arrival vectors and
   mean_time summaries per model family, pinned so that optimisations
   cannot silently change behaviour. The determinism contract is
   byte-identical results across `--jobs` worker counts and seeds;
   cross-version trajectory stability is NOT part of the contract, so a
   PR that deliberately changes an RNG draw sequence or an edge
   enumeration order regenerates these literals once with
   `dune exec bin/regen_golden.exe` and says so in the changelog
   (policy: DESIGN.md, "Golden tests and regeneration policy").
   Last regenerated for PR 5, for two deliberate stream changes: the
   frontier flooding kernel draws Push coins in active-node scan order
   (and its adjacency rebuilds re-order rows under high churn), moving
   the push.* suites on delta-capable models; and {!Edge_meg.Classic}
   switched its scan skips to the tabulated {!Prng.Rng.Geo} sampler,
   moving every edge_meg_classic golden (flood, push, parsimonious,
   mean_time). All other literals are unchanged. *)

let node_chain =
  Markov.Chain.of_rows
    (Array.init 8 (fun s ->
         Array.append [| ((s + 1) mod 8, 0.8) |] (Array.init 8 (fun t -> (t, 0.025)))))

let node_connect x y =
  let d = abs (x - y) in
  min d (8 - d) <= 1

let node_space = Node_meg.Model.space ~chain:node_chain ~connect:node_connect

let grid_family = Random_path.Family.grid_shortest ~rows:5 ~cols:5

let builders : (string * (unit -> Core.Dynamic.t)) list =
  [
    ("edge_meg_classic", fun () -> Edge_meg.Classic.make ~n:48 ~p:(3. /. 48.) ~q:0.4 ());
    ( "edge_meg_opportunistic",
      fun () ->
        Edge_meg.Opportunistic.make ~n:24
          {
            Edge_meg.Opportunistic.off_short = 2.;
            off_long = 8.;
            off_mix = 0.7;
            on_short = 1.5;
            on_long = 4.;
            on_mix = 0.6;
          } );
    ("node_meg", fun () -> Node_meg.Model.make ~n:40 node_space);
    ( "waypoint",
      fun () ->
        Mobility.Geo.dynamic (Mobility.Waypoint.create ~n:40 ~l:6. ~r:1.5 ~v_min:1. ~v_max:1.25 ())
    );
    ("random_walk", fun () -> Mobility.Random_walk_model.dynamic ~n:32 ~m:6 ~r:1.1 ());
    ("rp_model", fun () -> Random_path.Rp_model.make ~hold:0.5 ~n:30 ~family:grid_family ());
    ("rotating_star", fun () -> Adversarial.Model.rotating_star ~n:16);
    ( "filtered_complete",
      fun () ->
        Core.Dynamic.filter_edges ~p_keep:0.3 (Core.Dynamic.of_static (Graph.Builders.complete 20))
    );
    ( "union_star_matching",
      fun () ->
        Core.Dynamic.union
          (Adversarial.Model.rotating_star ~n:16)
          (Adversarial.Model.rotating_matching ~n:16) );
  ]

let build name = (List.assoc name builders) ()

let check_result name ~time ~trajectory ~arrivals (r : Core.Flooding.result) =
  (match (time, r.time) with
  | Some t, Some t' -> Alcotest.(check int) (name ^ " time") t t'
  | None, None -> ()
  | _ ->
      Alcotest.failf "%s time: expected %s, got %s" name
        (match time with Some t -> string_of_int t | None -> "None")
        (match r.time with Some t -> string_of_int t | None -> "None"));
  Alcotest.(check (array int)) (name ^ " trajectory") trajectory r.trajectory;
  Alcotest.(check (array int)) (name ^ " arrivals") arrivals r.arrivals

(* A capped run's trajectory is a short prefix followed by a constant
   plateau; assert the structure instead of embedding cap+1 literals. *)
let check_capped name ~cap ~prefix ~plateau ~arrivals (r : Core.Flooding.result) =
  check_true (name ^ " hit the cap") (r.time = None);
  Alcotest.(check int) (name ^ " trajectory length") (cap + 1) (Array.length r.trajectory);
  Alcotest.(check (array int))
    (name ^ " trajectory prefix") prefix
    (Array.sub r.trajectory 0 (Array.length prefix));
  Array.iteri
    (fun i x ->
      if i >= Array.length prefix && x <> plateau then
        Alcotest.failf "%s trajectory.(%d): expected plateau %d, got %d" name i plateau x)
    r.trajectory;
  Alcotest.(check (array int)) (name ^ " arrivals") arrivals r.arrivals

let flood name = Core.Flooding.run ~rng:(rng_of_seed 42) ~source:0 (build name)

let push name =
  Core.Flooding.run ~protocol:(Core.Flooding.Push 0.35) ~rng:(rng_of_seed 42) ~source:0
    (build name)

let pars name =
  Core.Flooding.run ~protocol:(Core.Flooding.Parsimonious 2) ~cap:400 ~rng:(rng_of_seed 7)
    ~source:1 (build name)

(* --- plain flooding, seed 42, source 0 --- *)

let test_flood_edge_meg_classic () =
  check_result "edge_meg_classic" ~time:(Some 3)
    ~trajectory:[| 1; 10; 40; 48 |]
    ~arrivals:
      [|
        0; 1; 3; 1; 1; 2; 2; 2; 2; 3; 2; 2; 3; 1; 2; 1; 3; 2; 3; 2; 3; 2; 2; 2; 2; 2; 2; 2; 2; 1;
        2; 2; 1; 2; 2; 3; 2; 2; 2; 2; 2; 2; 2; 3; 2; 1; 2; 1;
      |]
    (flood "edge_meg_classic")

let test_flood_opportunistic () =
  check_result "edge_meg_opportunistic" ~time:(Some 2)
    ~trajectory:[| 1; 10; 24 |]
    ~arrivals:[| 0; 2; 2; 2; 2; 1; 1; 1; 1; 2; 2; 1; 2; 2; 1; 2; 2; 1; 2; 2; 2; 1; 2; 1 |]
    (flood "edge_meg_opportunistic")

let test_flood_node_meg () =
  check_result "node_meg" ~time:(Some 2)
    ~trajectory:[| 1; 18; 40 |]
    ~arrivals:
      [|
        0; 2; 1; 1; 2; 1; 2; 2; 1; 2; 2; 2; 2; 2; 2; 1; 1; 2; 1; 1; 2; 1; 2; 1; 1; 2; 1; 2; 2; 1;
        2; 2; 1; 2; 1; 2; 1; 1; 2; 2;
      |]
    (flood "node_meg")

let test_flood_waypoint () =
  check_result "waypoint" ~time:(Some 5)
    ~trajectory:[| 1; 4; 15; 31; 39; 40 |]
    ~arrivals:
      [|
        0; 2; 4; 3; 3; 2; 5; 3; 4; 4; 1; 3; 3; 4; 3; 2; 3; 4; 1; 2; 3; 2; 3; 3; 3; 1; 4; 3; 3; 2;
        3; 3; 3; 4; 4; 2; 2; 2; 2; 2;
      |]
    (flood "waypoint")

let test_flood_random_walk () =
  check_result "random_walk" ~time:(Some 4)
    ~trajectory:[| 1; 5; 17; 28; 32 |]
    ~arrivals:
      [|
        0; 2; 3; 2; 2; 3; 2; 3; 3; 1; 2; 4; 3; 3; 3; 2; 1; 4; 3; 2; 2; 2; 2; 3; 2; 1; 3; 3; 2; 1;
        4; 4;
      |]
    (flood "random_walk")

let test_flood_rp_model () =
  check_result "rp_model" ~time:(Some 17)
    ~trajectory:[| 1; 1; 2; 3; 4; 7; 11; 11; 15; 21; 21; 23; 26; 26; 28; 28; 28; 30 |]
    ~arrivals:
      [|
        0; 11; 9; 12; 5; 8; 4; 6; 14; 14; 6; 12; 9; 9; 17; 3; 5; 9; 9; 12; 17; 9; 11; 6; 2; 6; 8;
        8; 5; 8;
      |]
    (flood "rp_model")

let test_flood_rotating_star () =
  check_result "rotating_star" ~time:(Some 15)
    ~trajectory:[| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 |]
    ~arrivals:[| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |]
    (flood "rotating_star")

let test_flood_filtered () =
  check_result "filtered_complete" ~time:(Some 3)
    ~trajectory:[| 1; 7; 19; 20 |]
    ~arrivals:[| 0; 2; 1; 2; 1; 2; 2; 3; 1; 2; 2; 2; 2; 2; 1; 2; 2; 2; 1; 1 |]
    (flood "filtered_complete")

let test_flood_union () =
  check_result "union_star_matching" ~time:(Some 3)
    ~trajectory:[| 1; 2; 4; 16 |]
    ~arrivals:[| 0; 1; 2; 2; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3 |]
    (flood "union_star_matching")

(* --- Push(0.35), seed 42, source 0: enumeration-order sensitive --- *)

let test_push_edge_meg_classic () =
  check_result "push.edge_meg_classic" ~time:(Some 7)
    ~trajectory:[| 1; 7; 20; 36; 45; 46; 47; 48 |]
    ~arrivals:
      [|
        0; 1; 3; 1; 2; 3; 7; 4; 4; 3; 4; 6; 3; 1; 3; 1; 4; 3; 3; 3; 5; 2; 4; 3; 2; 2; 3; 2; 3; 1;
        2; 3; 4; 2; 2; 4; 4; 2; 2; 4; 2; 3; 2; 3; 3; 1; 3; 2;
      |]
    (push "edge_meg_classic")

let test_push_opportunistic () =
  check_result "push.edge_meg_opportunistic" ~time:(Some 3)
    ~trajectory:[| 1; 7; 19; 24 |]
    ~arrivals:[| 0; 3; 2; 2; 2; 1; 1; 3; 1; 2; 3; 1; 2; 3; 1; 2; 2; 2; 2; 3; 2; 1; 2; 2 |]
    (push "edge_meg_opportunistic")

let test_push_node_meg () =
  check_result "push.node_meg" ~time:(Some 4)
    ~trajectory:[| 1; 12; 31; 37; 40 |]
    ~arrivals:
      [|
        0; 2; 1; 1; 2; 1; 2; 3; 1; 3; 2; 3; 2; 2; 2; 1; 1; 2; 2; 2; 4; 1; 3; 2; 2; 2; 1; 4; 3; 1;
        2; 2; 2; 3; 2; 2; 1; 1; 4; 2;
      |]
    (push "node_meg")

let test_push_waypoint () =
  check_result "push.waypoint" ~time:(Some 7)
    ~trajectory:[| 1; 3; 12; 23; 33; 37; 39; 40 |]
    ~arrivals:
      [|
        0; 2; 4; 4; 3; 3; 6; 5; 7; 4; 1; 5; 4; 4; 3; 2; 5; 4; 1; 2; 3; 3; 3; 4; 4; 2; 4; 4; 3; 2;
        3; 3; 3; 6; 5; 2; 2; 2; 3; 2;
      |]
    (push "waypoint")

let test_push_random_walk () =
  check_result "push.random_walk" ~time:(Some 7)
    ~trajectory:[| 1; 4; 12; 17; 25; 31; 31; 32 |]
    ~arrivals:
      [|
        0; 3; 7; 2; 2; 5; 2; 4; 4; 2; 5; 4; 5; 3; 4; 2; 1; 5; 5; 2; 4; 3; 2; 3; 2; 1; 4; 5; 3; 1;
        4; 4;
      |]
    (push "random_walk")

let test_push_rp_model () =
  check_result "push.rp_model" ~time:(Some 22)
    ~trajectory:
      [| 1; 1; 2; 3; 4; 6; 8; 9; 12; 15; 16; 16; 17; 18; 20; 22; 25; 26; 27; 29; 29; 29; 30 |]
    ~arrivals:
      [|
        0; 18; 9; 22; 5; 8; 4; 6; 15; 16; 14; 16; 9; 10; 19; 3; 5; 9; 13; 12; 17; 19; 16; 8; 2; 7;
        15; 14; 6; 8;
      |]
    (push "rp_model")

let test_push_filtered () =
  check_result "push.filtered_complete" ~time:(Some 4)
    ~trajectory:[| 1; 6; 14; 17; 20 |]
    ~arrivals:[| 0; 2; 1; 2; 1; 3; 4; 4; 2; 2; 3; 2; 2; 2; 1; 4; 2; 3; 1; 1 |]
    (push "filtered_complete")

let test_push_union () =
  check_result "push.union_star_matching" ~time:(Some 8)
    ~trajectory:[| 1; 2; 4; 11; 13; 14; 14; 15; 16 |]
    ~arrivals:[| 0; 1; 2; 2; 3; 3; 5; 7; 4; 3; 3; 4; 3; 3; 3; 8 |]
    (push "union_star_matching")

(* --- Parsimonious(2), cap 400, seed 7, source 1: exercises informed_at --- *)

let test_pars_edge_meg_classic () =
  check_result "pars.edge_meg_classic" ~time:(Some 3)
    ~trajectory:[| 1; 10; 38; 48 |]
    ~arrivals:
      [|
        2; 0; 3; 2; 2; 2; 2; 3; 1; 2; 2; 2; 2; 3; 2; 3; 1; 3; 2; 2; 3; 2; 1; 3; 2; 2; 1; 2; 1; 2;
        2; 2; 2; 2; 1; 1; 1; 3; 2; 2; 2; 2; 2; 2; 3; 1; 3; 2;
      |]
    (pars "edge_meg_classic")

let test_pars_node_meg () =
  check_result "pars.node_meg" ~time:(Some 2)
    ~trajectory:[| 1; 13; 40 |]
    ~arrivals:
      [|
        2; 0; 2; 2; 1; 1; 2; 2; 2; 1; 2; 2; 1; 2; 1; 2; 2; 1; 2; 1; 1; 2; 2; 1; 1; 2; 1; 2; 2; 2;
        2; 2; 2; 2; 2; 2; 2; 2; 2; 1;
      |]
    (pars "node_meg")

let test_pars_waypoint () =
  check_result "pars.waypoint" ~time:(Some 4)
    ~trajectory:[| 1; 12; 34; 39; 40 |]
    ~arrivals:
      [|
        1; 0; 2; 3; 1; 1; 2; 1; 2; 2; 2; 1; 3; 2; 2; 2; 2; 2; 1; 2; 2; 2; 1; 2; 2; 4; 2; 2; 3; 3;
        1; 2; 2; 3; 1; 1; 2; 1; 2; 2;
      |]
    (pars "waypoint")

let test_pars_random_walk_capped () =
  check_capped "pars.random_walk" ~cap:400 ~prefix:[| 1; 6; 7; 8 |] ~plateau:11
    ~arrivals:
      [|
        -1; 0; 4; -1; 1; -1; -1; -1; -1; -1; -1; -1; 1; -1; -1; 4; -1; -1; -1; -1; 3; 2; -1; -1; 1;
        1; -1; -1; 4; -1; 1; -1;
      |]
    (pars "random_walk")

let test_pars_rp_model_capped () =
  check_capped "pars.rp_model" ~cap:400
    ~prefix:[| 1; 2; 3; 4; 4; 5; 6; 7; 8 |]
    ~plateau:9
    ~arrivals:
      [|
        -1; 0; 5; 2; 1; -1; -1; 9; -1; -1; -1; -1; -1; -1; -1; -1; 7; -1; -1; 8; 3; -1; -1; -1; -1;
        6; -1; -1; -1; -1;
      |]
    (pars "rp_model")

let test_pars_rotating_star () =
  check_result "pars.rotating_star" ~time:(Some 1) ~trajectory:[| 1; 16 |]
    ~arrivals:[| 1; 0; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1 |]
    (pars "rotating_star")

let test_pars_filtered () =
  check_result "pars.filtered_complete" ~time:(Some 2)
    ~trajectory:[| 1; 8; 20 |]
    ~arrivals:[| 2; 0; 2; 2; 2; 2; 2; 1; 2; 2; 1; 2; 1; 1; 1; 1; 2; 2; 2; 1 |]
    (pars "filtered_complete")

(* --- mean_time: both acceptance seeds, sequential and 4 workers --- *)

let check_mean_time ~seed ~jobs ~mean ~stddev ~max =
  let s =
    Core.Flooding.mean_time ~sched:(Exec.of_int jobs) ~rng:(rng_of_seed seed) ~trials:12
      (fun () -> Edge_meg.Classic.make ~n:48 ~p:(3. /. 48.) ~q:0.4 ())
  in
  let name what = Printf.sprintf "mean_time seed=%d jobs=%d %s" seed jobs what in
  check_close ~eps:0. (name "mean") mean (Stats.Summary.mean s);
  check_close ~eps:0. (name "stddev") stddev (Stats.Summary.stddev s);
  check_close ~eps:0. (name "max") max (Stats.Summary.max s)

let test_mean_time_seed42 () =
  check_mean_time ~seed:42 ~jobs:1 ~mean:3.5000000000000004 ~stddev:0.52223296786709339 ~max:4.;
  check_mean_time ~seed:42 ~jobs:4 ~mean:3.5000000000000004 ~stddev:0.52223296786709339 ~max:4.

let test_mean_time_seed7 () =
  check_mean_time ~seed:7 ~jobs:1 ~mean:3.3333333333333339 ~stddev:0.4923659639173309 ~max:4.;
  check_mean_time ~seed:7 ~jobs:4 ~mean:3.3333333333333339 ~stddev:0.4923659639173309 ~max:4.

(* Regeneration recipe: `dune exec bin/regen_golden.exe` prints every
   literal above in paste-ready form (its builders mirror this file);
   transcribe and note the regeneration in the changelog. *)

let suites =
  [
    ( "golden.flooding",
      [
        Alcotest.test_case "edge_meg classic" `Quick test_flood_edge_meg_classic;
        Alcotest.test_case "edge_meg opportunistic" `Quick test_flood_opportunistic;
        Alcotest.test_case "node_meg" `Quick test_flood_node_meg;
        Alcotest.test_case "waypoint" `Quick test_flood_waypoint;
        Alcotest.test_case "random_walk" `Quick test_flood_random_walk;
        Alcotest.test_case "rp_model" `Quick test_flood_rp_model;
        Alcotest.test_case "rotating_star" `Quick test_flood_rotating_star;
        Alcotest.test_case "filtered complete" `Quick test_flood_filtered;
        Alcotest.test_case "union star+matching" `Quick test_flood_union;
      ] );
    ( "golden.push",
      [
        Alcotest.test_case "edge_meg classic" `Quick test_push_edge_meg_classic;
        Alcotest.test_case "edge_meg opportunistic" `Quick test_push_opportunistic;
        Alcotest.test_case "node_meg" `Quick test_push_node_meg;
        Alcotest.test_case "waypoint" `Quick test_push_waypoint;
        Alcotest.test_case "random_walk" `Quick test_push_random_walk;
        Alcotest.test_case "rp_model" `Quick test_push_rp_model;
        Alcotest.test_case "filtered complete" `Quick test_push_filtered;
        Alcotest.test_case "union star+matching" `Quick test_push_union;
      ] );
    ( "golden.parsimonious",
      [
        Alcotest.test_case "edge_meg classic" `Quick test_pars_edge_meg_classic;
        Alcotest.test_case "node_meg" `Quick test_pars_node_meg;
        Alcotest.test_case "waypoint" `Quick test_pars_waypoint;
        Alcotest.test_case "random_walk capped" `Quick test_pars_random_walk_capped;
        Alcotest.test_case "rp_model capped" `Quick test_pars_rp_model_capped;
        Alcotest.test_case "rotating_star" `Quick test_pars_rotating_star;
        Alcotest.test_case "filtered complete" `Quick test_pars_filtered;
      ] );
    ( "golden.mean_time",
      [
        Alcotest.test_case "seed 42, jobs 1 and 4" `Quick test_mean_time_seed42;
        Alcotest.test_case "seed 7, jobs 1 and 4" `Quick test_mean_time_seed7;
      ] );
  ]
