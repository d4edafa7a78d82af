open Helpers

let static g = Core.Dynamic.of_static g

let run_variant ?(cap = 5000) variant g source =
  Core.Gossip.run ~cap ~variant ~rng:(rng_of_seed 1) ~source (static g)

let test_gossip_complete_finishes () =
  let r = run_variant Core.Gossip.Push_pull (Graph.Builders.complete 32) 0 in
  match r.time with
  | Some t -> check_true "O(log n)-ish on K32" (t <= 20)
  | None -> Alcotest.fail "push-pull did not finish on K32"

let test_push_on_two_nodes () =
  let g = Graph.Static.of_edges ~n:2 [ (0, 1) ] in
  let r = run_variant Core.Gossip.Push g 0 in
  Alcotest.(check (option int)) "one round on an edge" (Some 1) r.time;
  Alcotest.(check (array int)) "trajectory" [| 1; 2 |] r.trajectory

let test_pull_star_is_fast () =
  (* Star, source = centre: every leaf's single neighbour is the centre,
     so one pull round informs everyone. *)
  let g = Graph.Builders.star 20 in
  let r = run_variant Core.Gossip.Pull g 0 in
  Alcotest.(check (option int)) "one pull round" (Some 1) r.time

let test_push_star_is_slow () =
  (* Star, source = centre, push only: the centre pushes to one uniform
     leaf per round — coupon collector, far more than one round. *)
  let g = Graph.Builders.star 20 in
  let r = run_variant Core.Gossip.Push g 0 in
  match r.time with
  | Some t -> check_true "coupon-collector slow" (t >= 19)
  | None -> Alcotest.fail "push on star did not finish"

let test_pull_from_leaf_on_star () =
  (* Source is a leaf: the centre pulls (or the source pushes) — with
     pull, every leaf asks the centre; once the centre is informed all
     remaining leaves learn in the next round. *)
  let g = Graph.Builders.star 20 in
  let r = run_variant Core.Gossip.Pull g 3 in
  (* Phase 1 is a geometric wait with mean 19 (the centre must pull the
     one informed leaf), so the bound leaves it a few means of headroom
     while still ruling out anything slower than two-phase behaviour. *)
  match r.time with
  | Some t -> check_true "two-phase pull" (t <= 60)
  | None -> Alcotest.fail "pull from leaf did not finish"

let test_gossip_cap () =
  let g = Graph.Static.of_edges ~n:3 [ (0, 1) ] in
  let r = run_variant ~cap:30 Core.Gossip.Push_pull g 0 in
  Alcotest.(check (option int)) "unreachable node" None r.time

(* A negative cap is rejected, as [Flooding.run] rejects it, instead of
   running no round (and [mean_time] averaging the cap itself). *)
let test_gossip_negative_cap () =
  let g = static (Graph.Builders.cycle 8) in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Gossip.run: cap must be >= 0") (fun () ->
        ignore (f ()))
  in
  raises "run" (fun () ->
      Core.Gossip.run ~cap:(-1) ~variant:Core.Gossip.Push ~rng:(rng_of_seed 1) ~source:0 g);
  raises "mean_time" (fun () ->
      Core.Gossip.mean_time ~cap:(-1) ~variant:Core.Gossip.Push_pull ~rng:(rng_of_seed 1)
        ~trials:3 g);
  Alcotest.(check (option int)) "cap 0 is a legal, unfinished run" None
    (run_variant ~cap:0 Core.Gossip.Push (Graph.Builders.cycle 8) 0).time

let test_gossip_source_validation () =
  check_true "bad source raises"
    (try
       ignore (run_variant Core.Gossip.Push (Graph.Builders.cycle 4) 7);
       false
     with Invalid_argument _ -> true)

let test_contacts_counted () =
  let g = Graph.Builders.complete 8 in
  let r = run_variant Core.Gossip.Push_pull g 0 in
  (* Every node makes at most 2 contacts per round (one push + one pull
     attempt); at least the source pushes each round. *)
  (match r.time with
  | Some t ->
      check_true "contacts within per-round budget" (r.contacts <= 2 * 8 * t);
      check_true "contacts happened" (r.contacts >= t)
  | None -> Alcotest.fail "did not finish");
  ()

let q_gossip_trajectory_monotone =
  qtest ~count:30 "gossip trajectory monotone"
    QCheck2.Gen.(pair seed_gen (int_range 2 20))
    (fun (seed, n) ->
      let dyn = Edge_meg.Classic.make ~n ~p:(Float.min 1. (4. /. float_of_int n)) ~q:0.3 () in
      let r =
        Core.Gossip.run ~cap:2000 ~variant:Core.Gossip.Push_pull
          ~rng:(Prng.Rng.of_seed seed) ~source:0 dyn
      in
      r.trajectory.(0) = 1
      &&
      let mono = ref true in
      Array.iteri
        (fun i v -> if i > 0 && v < r.trajectory.(i - 1) then mono := false)
        r.trajectory;
      !mono)

let test_mean_time_deterministic () =
  let mk () = Edge_meg.Classic.make ~n:48 ~p:0.1 ~q:0.3 () in
  let a =
    Core.Gossip.mean_time ~variant:Core.Gossip.Push ~rng:(rng_of_seed 4) ~trials:5 (mk ())
  in
  let b =
    Core.Gossip.mean_time ~variant:Core.Gossip.Push ~rng:(rng_of_seed 4) ~trials:5 (mk ())
  in
  check_close "reproducible" (Stats.Summary.mean a) (Stats.Summary.mean b)

let test_push_pull_dominates_push () =
  let mk () = Edge_meg.Classic.make ~n:96 ~p:(4. /. 96.) ~q:0.4 () in
  let push =
    Core.Gossip.mean_time ~variant:Core.Gossip.Push ~rng:(rng_of_seed 5) ~trials:10 (mk ())
  in
  let both =
    Core.Gossip.mean_time ~variant:Core.Gossip.Push_pull ~rng:(rng_of_seed 6) ~trials:10
      (mk ())
  in
  check_true "push-pull no slower on average"
    (Stats.Summary.mean both <= Stats.Summary.mean push +. 1.)

let suites =
  [
    ( "core.gossip",
      [
        Alcotest.test_case "push-pull on K32" `Quick test_gossip_complete_finishes;
        Alcotest.test_case "push on an edge" `Quick test_push_on_two_nodes;
        Alcotest.test_case "pull star from centre" `Quick test_pull_star_is_fast;
        Alcotest.test_case "push star coupon collector" `Quick test_push_star_is_slow;
        Alcotest.test_case "pull star from leaf" `Quick test_pull_from_leaf_on_star;
        Alcotest.test_case "cap" `Quick test_gossip_cap;
        Alcotest.test_case "source validation" `Quick test_gossip_source_validation;
        Alcotest.test_case "negative cap rejected" `Quick test_gossip_negative_cap;
        Alcotest.test_case "contact accounting" `Quick test_contacts_counted;
        Alcotest.test_case "mean_time deterministic" `Quick test_mean_time_deterministic;
        Alcotest.test_case "push-pull dominates push" `Quick test_push_pull_dominates_push;
        q_gossip_trajectory_monotone;
      ] );
  ]
