(* Regenerates the literal expectations of test/test_golden.ml.

   The golden suites pin exact flooding trajectories, arrival vectors
   and mean_time summaries per model family. They are invariants
   against *accidental* behaviour change: byte-identical results across
   `--jobs` worker counts and seeds is the contract; cross-version
   trajectory stability is not. When a PR deliberately changes an RNG
   draw sequence or an edge enumeration order (see DESIGN.md, "Golden
   tests and regeneration policy"), run

     dune exec bin/regen_golden.exe

   transcribe the printed literals into test/test_golden.ml, and say so
   in the changelog. The builders below must stay in sync with the test
   file. The last section prints the Classic stream pins of
   test/test_edge_meg.ml, whose cases and rendering must stay in sync
   with that file. *)

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

let int_array a =
  String.concat "; " (Array.to_list (Array.map string_of_int a))

let print_result name (r : Core.Flooding.result) =
  (match r.time with
  | Some t ->
      Printf.printf "%s:\n  ~time:(Some %d)\n  ~trajectory:[| %s |]\n" name t
        (int_array r.trajectory)
  | None ->
      (* Capped run: the trajectory is a prefix followed by a constant
         plateau — print the check_capped form. *)
      let len = Array.length r.trajectory in
      let plateau = r.trajectory.(len - 1) in
      let k = ref (len - 1) in
      while !k > 0 && r.trajectory.(!k - 1) = plateau do
        decr k
      done;
      Printf.printf "%s: CAPPED (len %d)\n  ~prefix:[| %s |] ~plateau:%d\n" name len
        (int_array (Array.sub r.trajectory 0 !k))
        plateau);
  Printf.printf "  ~arrivals:[| %s |]\n\n" (int_array r.arrivals)

let () =
  print_endline "=== plain flooding, seed 42, source 0 ===";
  List.iter
    (fun (name, build) ->
      print_result name (Core.Flooding.run ~rng:(Prng.Rng.of_seed 42) ~source:0 (build ())))
    builders;
  print_endline "=== Push(0.35), seed 42, source 0 ===";
  List.iter
    (fun (name, build) ->
      print_result ("push." ^ name)
        (Core.Flooding.run ~protocol:(Core.Flooding.Push 0.35) ~rng:(Prng.Rng.of_seed 42)
           ~source:0 (build ())))
    builders;
  print_endline "=== Parsimonious(2), cap 400, seed 7, source 1 ===";
  List.iter
    (fun (name, build) ->
      print_result ("pars." ^ name)
        (Core.Flooding.run ~protocol:(Core.Flooding.Parsimonious 2) ~cap:400
           ~rng:(Prng.Rng.of_seed 7) ~source:1 (build ())))
    builders;
  print_endline "=== mean_time, edge_meg_classic n=48, trials 12 ===";
  List.iter
    (fun seed ->
      List.iter
        (fun jobs ->
          let s =
            Core.Flooding.mean_time ~sched:(Exec.of_int jobs) ~rng:(Prng.Rng.of_seed seed)
              ~trials:12 (fun () -> Edge_meg.Classic.make ~n:48 ~p:(3. /. 48.) ~q:0.4 ())
          in
          Printf.printf "seed %d jobs %d: ~mean:%.17g ~stddev:%.17g ~max:%.17g\n" seed jobs
            (Stats.Summary.mean s) (Stats.Summary.stddev s) (Stats.Summary.max s))
        [ 1; 4 ])
    [ 42; 7 ]

(* Mirrors test/test_edge_meg.ml's [stream_cases] and [stream_digest]. *)
let stream_cases : (string * int * (unit -> Core.Dynamic.t)) list =
  [
    ("full", 4, fun () -> Edge_meg.Classic.make ~init:Full ~n:20 ~p:0.1 ~q:0.3 ());
    ("empty", 4, fun () -> Edge_meg.Classic.make ~init:Empty ~n:20 ~p:0.1 ~q:0.3 ());
    ("saturated q=0", 4, fun () -> Edge_meg.Classic.make ~n:18 ~p:0.2 ~q:0. ());
    ("q=1", 4, fun () -> Edge_meg.Classic.make ~n:22 ~p:0.15 ~q:1. ());
    ("p=1", 4, fun () -> Edge_meg.Classic.make ~n:16 ~p:1. ~q:0.6 ());
    ("parts=64", 4, fun () -> Edge_meg.Classic.make ~parts:64 ~n:24 ~p:0.1 ~q:0.3 ());
    ("parts=9 p=1", 4, fun () -> Edge_meg.Classic.make ~parts:9 ~n:10 ~p:1. ~q:0.5 ());
    ( "parts=64 n=300 q=0.3",
      30,
      fun () -> Edge_meg.Classic.make ~parts:64 ~n:300 ~p:0.02 ~q:0.3 () );
    ("parts=64 n=300 q=1", 30, fun () -> Edge_meg.Classic.make ~parts:64 ~n:300 ~p:0.02 ~q:1. ());
    ( "parts=64 n=300 inversion",
      30,
      fun () -> Edge_meg.Classic.make ~parts:64 ~n:300 ~p:0.001 ~q:1e-4 () );
    ( "parts=64 empty q=0",
      30,
      fun () -> Edge_meg.Classic.make ~init:Empty ~parts:64 ~n:200 ~p:0.01 ~q:0. () );
    ( "parts=64 empty p=1",
      30,
      fun () -> Edge_meg.Classic.make ~init:Empty ~parts:64 ~n:200 ~p:1. ~q:0.4 () );
    ("parts=7 n=500", 30, fun () -> Edge_meg.Classic.make ~parts:7 ~n:500 ~p:0.004 ~q:0.05 ());
  ]

let stream_digest steps build =
  let g = build () in
  Core.Dynamic.reset g (Prng.Rng.of_seed 11);
  let b = Buffer.create 4096 in
  let snapshot () =
    Core.Dynamic.iter_edges g (Printf.bprintf b "%d-%d ");
    Buffer.add_char b '\n'
  in
  snapshot ();
  for _ = 1 to steps do
    Core.Dynamic.step g;
    let ok =
      Core.Dynamic.deltas g
        ~birth:(Printf.bprintf b "+%d-%d ")
        ~death:(Printf.bprintf b "-%d-%d ")
    in
    Printf.bprintf b "%b\n" ok;
    snapshot ()
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  print_endline "=== Classic stream pins, seed 11 ===";
  List.iter
    (fun (name, steps, build) -> Printf.printf "(%S, %S);\n" name (stream_digest steps build))
    stream_cases
