(* The timing wrapper must be invisible to the flooding kernel: the
   same seed gives the same flooding time, trajectory and arrivals
   with and without it, on the delta path (heap and partitioned
   edge-MEGs) and on the snapshot path (waypoint). And a span's self
   time is its duration minus the union of its children. *)

module Span = Perfbench.Span
module Timed = Perfbench.Timed

let models : (string * (unit -> Core.Dynamic.t)) list =
  [
    ("heap edge-MEG", fun () -> Edge_meg.Classic.make ~n:300 ~p:0.004 ~q:0.25 ());
    ("partitioned edge-MEG", fun () -> Edge_meg.Classic.make ~parts:4 ~n:300 ~p:0.004 ~q:0.25 ());
    ( "waypoint",
      fun () ->
        Mobility.Waypoint.dynamic ~init:Steady ~n:256 ~l:16. ~r:1.5 ~v_min:1. ~v_max:1.25 () );
  ]

let flood ~seed g = Core.Flooding.run ~rng:(Prng.Rng.of_seed seed) ~source:0 g

let test_transparent build () =
  List.iter
    (fun seed ->
      let bare = flood ~seed (build ()) in
      let calls = ref 0 in
      let timed =
        Timed.wrap ~clock:(fun () -> 0.) ~on_call:(fun _ _ _ -> incr calls) (build ())
      in
      Timed.set_enabled timed true;
      let label what = Printf.sprintf "seed %d: %s" seed what in
      (* Same capabilities, so the kernel picks the same path. *)
      let inner = build () in
      Alcotest.(check bool) (label "has_deltas") (Core.Dynamic.has_deltas inner)
        (Core.Dynamic.has_deltas (Timed.model timed));
      Alcotest.(check (option int)) (label "delta_size") (Core.Dynamic.delta_size inner)
        (Core.Dynamic.delta_size (Timed.model timed));
      let wrapped = flood ~seed (Timed.model timed) in
      Alcotest.(check (option int)) (label "time") bare.time wrapped.time;
      Alcotest.(check (array int)) (label "trajectory") bare.trajectory wrapped.trajectory;
      Alcotest.(check (array int)) (label "arrivals") bare.arrivals wrapped.arrivals;
      Alcotest.(check bool) (label "calls were timed") true (!calls > 0))
    [ 42; 7 ]

let span ?(parent = -1) name start stop = { Span.name; start; stop; parent; req = 0 }

let check_self expected spans =
  Alcotest.(check (array (float 1e-12))) "self times" expected (Span.self_times spans)

let test_self_disjoint () =
  check_self [| 6.; 1.; 3. |] [| span "root" 0. 10.; span ~parent:0 "a" 1. 2.; span ~parent:0 "b" 4. 7. |]

let test_self_overlap () =
  (* Children overlapping each other count once. *)
  check_self [| 5.; 3.; 4. |] [| span "root" 0. 10.; span ~parent:0 "a" 2. 5.; span ~parent:0 "b" 3. 7. |]

let test_self_clipped () =
  (* A child sticking out of its parent only covers the shared part. *)
  check_self [| 7.; 5. |] [| span "root" 0. 10.; span ~parent:0 "a" 7. 12. |]

let test_self_nested () =
  (* Grandchildren are the child's business, not the root's. *)
  check_self [| 1.; 5.; 1.; 1. |]
    [| span "root" 0. 8.; span ~parent:0 "a" 1. 7.; span ~parent:1 "b" 2. 3.; span ~parent:0 "c" 7. 8. |]

let test_recorder () =
  let r = Span.create () in
  let root = Span.start r ~name:"op" ~parent:(-1) ~req:3 1. in
  for i = 1 to 2000 do
    ignore (Span.add r (span ~parent:root "leaf" (1. +. float_of_int i) (1.5 +. float_of_int i)))
  done;
  Span.finish r root 3000.;
  let spans = Span.spans r in
  Alcotest.(check int) "all kept" 2001 (Array.length spans);
  Alcotest.(check (float 1e-9)) "root closed" 2999. (Span.duration spans.(root));
  Alcotest.(check (float 1e-6)) "root self" (2999. -. 1000.) (Span.self_times spans).(root)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench.timed",
        List.map
          (fun (name, build) ->
            Alcotest.test_case (name ^ " flood unchanged") `Quick (test_transparent build))
          models );
      ( "perfbench.span",
        [
          Alcotest.test_case "disjoint children" `Quick test_self_disjoint;
          Alcotest.test_case "overlapping children" `Quick test_self_overlap;
          Alcotest.test_case "child outside parent" `Quick test_self_clipped;
          Alcotest.test_case "nested children" `Quick test_self_nested;
          Alcotest.test_case "recorder grows and closes" `Quick test_recorder;
        ] );
    ]
