open Helpers

let static g = Core.Dynamic.of_static g

let test_hitting_self () =
  let dyn = static (Graph.Builders.cycle 6) in
  Alcotest.(check (option int)) "hit start immediately" (Some 0)
    (Core.Dyn_walk.hitting_time ~rng:(rng_of_seed 1) ~start:2 ~target:2 dyn)

let test_hitting_two_nodes () =
  let dyn = static (Graph.Static.of_edges ~n:2 [ (0, 1) ]) in
  match Core.Dyn_walk.hitting_time ~hold:0. ~rng:(rng_of_seed 2) ~start:0 ~target:1 dyn with
  | Some t -> Alcotest.(check int) "deterministic hop" 1 t
  | None -> Alcotest.fail "did not hit"

let test_hitting_unreachable () =
  let dyn = static (Graph.Static.of_edges ~n:3 [ (0, 1) ]) in
  Alcotest.(check (option int)) "unreachable target" None
    (Core.Dyn_walk.hitting_time ~cap:200 ~rng:(rng_of_seed 3) ~start:0 ~target:2 dyn)

let test_cover_complete () =
  let dyn = static (Graph.Builders.complete 10) in
  match Core.Dyn_walk.cover_time ~rng:(rng_of_seed 4) ~start:0 dyn with
  | Some t -> check_true "coupon-collector scale" (t >= 9 && t < 2000)
  | None -> Alcotest.fail "cover on K10 failed"

let test_cover_single_node () =
  let dyn = static (Graph.Static.of_edges ~n:1 []) in
  Alcotest.(check (option int)) "trivial cover" (Some 0)
    (Core.Dyn_walk.cover_time ~rng:(rng_of_seed 5) ~start:0 dyn)

let test_walk_on_dynamic_uses_snapshots () =
  (* Two nodes, edge present only every other step: the non-lazy walk
     must wait for the edge. Schedule: no edge at t=0, edge at t=1. *)
  let dyn = Core.Dynamic.of_snapshots ~n:2 [| []; [ (0, 1) ] |] in
  match Core.Dyn_walk.hitting_time ~hold:0. ~rng:(rng_of_seed 6) ~start:0 ~target:1 dyn with
  | Some t -> Alcotest.(check int) "waits for the edge" 2 t
  | None -> Alcotest.fail "did not hit across snapshots"

let test_validation () =
  let dyn = static (Graph.Builders.cycle 4) in
  check_true "bad hold"
    (try
       ignore (Core.Dyn_walk.hitting_time ~hold:1. ~rng:(rng_of_seed 7) ~start:0 ~target:1 dyn);
       false
     with Invalid_argument _ -> true);
  check_true "bad target"
    (try
       ignore (Core.Dyn_walk.hitting_time ~rng:(rng_of_seed 7) ~start:0 ~target:9 dyn);
       false
     with Invalid_argument _ -> true)

(* A negative cap is rejected by every entry point instead of running
   no step (and the means averaging the cap itself). *)
let test_negative_cap () =
  let dyn () = static (Graph.Builders.cycle 8) in
  let rng = rng_of_seed 10 in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Dyn_walk: cap must be >= 0") (fun () ->
        ignore (f ()))
  in
  raises "hitting_time" (fun () ->
      Core.Dyn_walk.hitting_time ~cap:(-1) ~rng ~start:0 ~target:4 (dyn ()));
  raises "cover_time" (fun () -> Core.Dyn_walk.cover_time ~cap:(-1) ~rng ~start:0 (dyn ()));
  raises "mean_hitting_time" (fun () ->
      Core.Dyn_walk.mean_hitting_time ~cap:(-1) ~rng ~trials:3 dyn);
  raises "mean_cover_time" (fun () -> Core.Dyn_walk.mean_cover_time ~cap:(-1) ~rng ~trials:3 dyn);
  Alcotest.(check (option int)) "cap 0 is a legal, unfinished walk" None
    (Core.Dyn_walk.hitting_time ~cap:0 ~rng ~start:0 ~target:4 (dyn ()))

let test_mean_cover_on_meg_completes () =
  let dyn () = Edge_meg.Classic.make ~n:24 ~p:(2. /. 24.) ~q:0.5 () in
  let cover = Core.Dyn_walk.mean_cover_time ~cap:20_000 ~rng:(rng_of_seed 8) ~trials:5 dyn in
  check_true "covers a sparse MEG" (cover < 20_000.)

let test_static_sparse_never_covers () =
  (* A two-component static graph can never be covered. *)
  let g = Graph.Static.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  Alcotest.(check (option int)) "disconnected static cover" None
    (Core.Dyn_walk.cover_time ~cap:2000 ~rng:(rng_of_seed 9) ~start:0 (static g))

let q_hitting_symmetric_scale =
  qtest ~count:20 "hitting time bounded on cycles"
    QCheck2.Gen.(pair seed_gen (int_range 3 12))
    (fun (seed, n) ->
      let dyn = static (Graph.Builders.cycle n) in
      match
        Core.Dyn_walk.hitting_time ~cap:100_000 ~rng:(Prng.Rng.of_seed seed) ~start:0
          ~target:(n / 2) dyn
      with
      | Some t -> t <= 100_000
      | None -> false)

let suites =
  [
    ( "core.dyn_walk",
      [
        Alcotest.test_case "hit self" `Quick test_hitting_self;
        Alcotest.test_case "two nodes" `Quick test_hitting_two_nodes;
        Alcotest.test_case "unreachable" `Quick test_hitting_unreachable;
        Alcotest.test_case "cover K10" `Quick test_cover_complete;
        Alcotest.test_case "cover single node" `Quick test_cover_single_node;
        Alcotest.test_case "rides snapshots" `Quick test_walk_on_dynamic_uses_snapshots;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "negative cap rejected" `Quick test_negative_cap;
        Alcotest.test_case "covers sparse MEG" `Quick test_mean_cover_on_meg_completes;
        Alcotest.test_case "disconnected static never covers" `Quick
          test_static_sparse_never_covers;
        q_hitting_symmetric_scale;
      ] );
  ]
