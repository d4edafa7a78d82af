open Helpers

(* [Dynamic.fill_edges] is derived from the model's one enumeration:
   for every model it must produce exactly the edge sequence of
   [Dynamic.iter_edges] — same edges, same order, same orientations —
   and leave the snapshot as it found it. Order matters because
   per-edge randomness (filter_edges keeps) is drawn in enumeration
   order, so a fill that drew differently would silently change
   results.

   One builder per model family, sized small and parameterised away
   from degenerate corners (empty snapshots still occur naturally at
   these densities and are covered too). *)

let node_chain =
  Markov.Chain.of_rows
    (Array.init 6 (fun s ->
         Array.append [| ((s + 1) mod 6, 0.7) |] (Array.init 6 (fun t -> (t, 0.05)))))

let node_connect x y =
  let d = abs (x - y) in
  min d (6 - d) <= 1

let node_space = Node_meg.Model.space ~chain:node_chain ~connect:node_connect

let grid_family = Random_path.Family.grid_shortest ~rows:4 ~cols:4

let opportunistic_params =
  {
    Edge_meg.Opportunistic.off_short = 2.;
    off_long = 8.;
    off_mix = 0.7;
    on_short = 1.5;
    on_long = 4.;
    on_mix = 0.6;
  }

let builders : (string * (unit -> Core.Dynamic.t)) list =
  [
    ("edge_meg.classic", fun () -> Edge_meg.Classic.make ~n:24 ~p:0.08 ~q:0.4 ());
    (* The 64-strip engine at small n: strips concatenate in index
       order, in groups of 64 / parts; at n = 10 some strips are empty. *)
    ("edge_meg.classic.parts64", fun () -> Edge_meg.Classic.make ~parts:64 ~n:24 ~p:0.08 ~q:0.4 ());
    ("edge_meg.classic.parts9", fun () -> Edge_meg.Classic.make ~parts:9 ~n:10 ~p:0.15 ~q:0.5 ());
    ("edge_meg.general", fun () -> Edge_meg.Opportunistic.make ~n:16 opportunistic_params);
    ( "edge_meg.general_direct",
      fun () ->
        let chain =
          Markov.Chain.of_rows (Array.init 4 (fun s -> [| (s, 0.6); ((s + 1) mod 4, 0.4) |]))
        in
        Edge_meg.General.make ~n:14 ~chain ~chi:(fun s -> s >= 2) () );
    ("node_meg", fun () -> Node_meg.Model.make ~n:20 node_space);
    ( "mobility.waypoint",
      fun () -> Mobility.Waypoint.dynamic ~n:20 ~l:5. ~r:1.4 ~v_min:1. ~v_max:1.25 () );
    ("mobility.random_walk", fun () -> Mobility.Random_walk_model.dynamic ~n:18 ~m:5 ~r:1.1 ());
    ( "mobility.discrete_waypoint",
      fun () -> Mobility.Discrete_waypoint.dynamic ~n:14 (Mobility.Discrete_waypoint.build ~m:4 ~r:1.5) );
    ("random_path", fun () -> Random_path.Rp_model.make ~hold:0.5 ~n:18 ~family:grid_family ());
    ("adversarial.star", fun () -> Adversarial.Model.rotating_star ~n:11);
    ("adversarial.matching", fun () -> Adversarial.Model.rotating_matching ~n:16);
    ("adversarial.random_matching", fun () -> Adversarial.Model.random_matching ~rng_hint:() ~n:12);
    ("of_static", fun () -> Core.Dynamic.of_static (Graph.Builders.augmented_grid ~rows:3 ~cols:4 ~k:2));
    ( "of_snapshots",
      fun () ->
        Core.Dynamic.of_snapshots ~n:5 [| [ (0, 1); (2, 3) ]; []; [ (1, 4); (0, 2); (3, 4) ] |] );
    ( "filter_edges",
      fun () ->
        Core.Dynamic.filter_edges ~p_keep:0.4 (Core.Dynamic.of_static (Graph.Builders.complete 12)) );
    ( "subsample",
      fun () -> Core.Dynamic.subsample ~every:3 (Edge_meg.Classic.make ~n:16 ~p:0.1 ~q:0.5 ()) );
    ( "union",
      fun () ->
        Core.Dynamic.union (Adversarial.Model.rotating_star ~n:10)
          (Edge_meg.Classic.make ~n:10 ~p:0.15 ~q:0.5 ()) );
  ]

let collect_iter g =
  let acc = ref [] in
  Core.Dynamic.iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let test_fill_matches_iter (name, build) () =
  let buf = Graph.Edge_buffer.create () in
  List.iter
    (fun seed ->
      let g = build () in
      Core.Dynamic.reset g (rng_of_seed seed);
      for step = 0 to 4 do
        (* iter first, fill second: for filter_edges this also pins the
           coin cache (first enumeration draws, the second replays). *)
        let via_iter = collect_iter g in
        Core.Dynamic.fill_edges g buf;
        let via_fill = Graph.Edge_buffer.to_list buf in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s seed=%d step=%d" name seed step)
          via_iter via_fill;
        (* And the other way round on the same snapshot: a fill must not
           perturb the snapshot or the iteration. *)
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s seed=%d step=%d (re-iter)" name seed step)
          via_fill (collect_iter g);
        Core.Dynamic.step g
      done)
    [ 1; 5; 9 ]

(* fill_edges alone (without a prior iter) must draw the same filter
   coins that an iter would have: run two copies of the same filtered
   process, one enumerated only through fill, one only through iter. *)
let test_filter_fill_only () =
  let make () =
    Core.Dynamic.filter_edges ~p_keep:0.4 (Core.Dynamic.of_static (Graph.Builders.complete 12))
  in
  let a = make () and b = make () in
  Core.Dynamic.reset a (rng_of_seed 3);
  Core.Dynamic.reset b (rng_of_seed 3);
  let buf = Graph.Edge_buffer.create () in
  for step = 0 to 4 do
    Core.Dynamic.fill_edges a buf;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "fill-only = iter-only, step %d" step)
      (collect_iter b) (Graph.Edge_buffer.to_list buf);
    Core.Dynamic.step a;
    Core.Dynamic.step b
  done

let test_filter_before_reset_raises () =
  let g =
    Core.Dynamic.filter_edges ~p_keep:0.5 (Core.Dynamic.of_static (Graph.Builders.cycle 6))
  in
  check_true "iter_edges before reset raises"
    (try
       Core.Dynamic.iter_edges g (fun _ _ -> ());
       false
     with Invalid_argument _ -> true);
  check_true "fill_edges before reset raises"
    (try
       Core.Dynamic.fill_edges g (Graph.Edge_buffer.create ());
       false
     with Invalid_argument _ -> true);
  (* After a reset the same value works. *)
  Core.Dynamic.reset g (rng_of_seed 1);
  Core.Dynamic.iter_edges g (fun _ _ -> ())

(* [Dynamic.make]'s [fill_edges] argument is ignored: a fill that
   disagrees with the model's [iter_edges] is never called. *)
let test_fill_argument_ignored () =
  let g =
    Core.Dynamic.make ~n:4 ~reset:ignore ~step:ignore
      ~iter_edges:(fun f ->
        f 2 3;
        f 0 1)
      ~fill_edges:(fun buf -> Graph.Edge_buffer.push buf 1 2)
      ()
  in
  let buf = Graph.Edge_buffer.create () in
  Core.Dynamic.fill_edges g buf;
  Alcotest.(check (list (pair int int)))
    "the iter_edges sequence" [ (2, 3); (0, 1) ] (Graph.Edge_buffer.to_list buf)

let test_public_fill_clears () =
  let g = Core.Dynamic.of_static (Graph.Builders.cycle 4) in
  Core.Dynamic.reset g (rng_of_seed 1);
  let buf = Graph.Edge_buffer.create () in
  Graph.Edge_buffer.push buf 99 100;
  Core.Dynamic.fill_edges g buf;
  Alcotest.(check int) "stale contents dropped" 4 (Graph.Edge_buffer.length buf)

let suites =
  [
    ( "core.fill_edges",
      List.map
        (fun (name, build) ->
          Alcotest.test_case (name ^ " fill = iter") `Quick (test_fill_matches_iter (name, build)))
        builders
      @ [
          Alcotest.test_case "filter: fill-only = iter-only" `Quick test_filter_fill_only;
          Alcotest.test_case "filter: pre-reset raises" `Quick test_filter_before_reset_raises;
          Alcotest.test_case "public fill clears buffer" `Quick test_public_fill_clears;
          Alcotest.test_case "make's fill argument ignored" `Quick test_fill_argument_ignored;
        ] );
  ]
