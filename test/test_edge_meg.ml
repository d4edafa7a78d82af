open Helpers

(* --- Classic --- *)

let test_classic_stationary_density () =
  let n = 64 and p = 0.2 and q = 0.2 in
  let dyn = Edge_meg.Classic.make ~n ~p ~q () in
  let s = Stats.Summary.create () in
  for i = 0 to 19 do
    Core.Dynamic.reset dyn (Prng.Rng.substream (rng_of_seed 1) i);
    Stats.Summary.add s (float_of_int (Core.Dynamic.edge_count dyn))
  done;
  check_close_rel ~rel:0.1 "stationary init density"
    (Edge_meg.Classic.expected_stationary_edges ~n ~p ~q)
    (Stats.Summary.mean s)

let test_classic_density_preserved_by_steps () =
  let n = 64 and p = 0.1 and q = 0.3 in
  let dyn = Edge_meg.Classic.make ~n ~p ~q () in
  let s = Stats.Summary.create () in
  Core.Dynamic.reset dyn (rng_of_seed 2);
  for _ = 1 to 300 do
    Core.Dynamic.step dyn;
    Stats.Summary.add s (float_of_int (Core.Dynamic.edge_count dyn))
  done;
  check_close_rel ~rel:0.1 "density stable under stepping"
    (Edge_meg.Classic.expected_stationary_edges ~n ~p ~q)
    (Stats.Summary.mean s)

let test_classic_empty_init () =
  let dyn = Edge_meg.Classic.make ~init:Empty ~n:20 ~p:0.1 ~q:0.1 () in
  Core.Dynamic.reset dyn (rng_of_seed 3);
  Alcotest.(check int) "empty start" 0 (Core.Dynamic.edge_count dyn)

let test_classic_full_init () =
  let dyn = Edge_meg.Classic.make ~init:Full ~n:20 ~p:0.1 ~q:0.1 () in
  Core.Dynamic.reset dyn (rng_of_seed 4);
  Alcotest.(check int) "full start" 190 (Core.Dynamic.edge_count dyn)

let test_classic_q0_monotone_growth () =
  let dyn = Edge_meg.Classic.make ~init:Empty ~n:24 ~p:0.05 ~q:0. () in
  Core.Dynamic.reset dyn (rng_of_seed 5);
  let prev = ref 0 in
  for _ = 1 to 30 do
    Core.Dynamic.step dyn;
    let m = Core.Dynamic.edge_count dyn in
    check_true "q=0 never loses edges" (m >= !prev);
    prev := m
  done;
  check_true "some edges appeared" (!prev > 0)

let test_classic_p0_monotone_decay () =
  let dyn = Edge_meg.Classic.make ~init:Full ~n:24 ~p:0. ~q:0.3 () in
  Core.Dynamic.reset dyn (rng_of_seed 6);
  let prev = ref 276 in
  for _ = 1 to 30 do
    Core.Dynamic.step dyn;
    let m = Core.Dynamic.edge_count dyn in
    check_true "p=0 never gains edges" (m <= !prev);
    prev := m
  done;
  Alcotest.(check int) "all edges die eventually" 0 !prev

let test_classic_deterministic_per_seed () =
  let mk () = Edge_meg.Classic.make ~n:32 ~p:0.1 ~q:0.2 () in
  let run dyn =
    Core.Dynamic.reset dyn (rng_of_seed 7);
    for _ = 1 to 10 do
      Core.Dynamic.step dyn
    done;
    Core.Dynamic.snapshot_edges dyn
  in
  Alcotest.(check (list (pair int int))) "bit-reproducible" (run (mk ())) (run (mk ()))

let q_classic_edges_valid =
  qtest ~count:50 "emitted edges are valid distinct pairs"
    QCheck2.Gen.(pair seed_gen (int_range 2 40))
    (fun (seed, n) ->
      let dyn = Edge_meg.Classic.make ~n ~p:0.3 ~q:0.3 () in
      Core.Dynamic.reset dyn (Prng.Rng.of_seed seed);
      Core.Dynamic.step dyn;
      let edges = Core.Dynamic.snapshot_edges dyn in
      List.for_all (fun (u, v) -> u >= 0 && u < v && v < n) edges
      && List.length (List.sort_uniq compare edges) = List.length edges)

let test_classic_validation () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_true "p out of range" (raises (fun () -> Edge_meg.Classic.make ~n:4 ~p:1.5 ~q:0.1 ()));
  (* [parts] is rejected outside 1..64, never clamped. *)
  check_true "parts 0" (raises (fun () -> Edge_meg.Classic.make ~parts:0 ~n:32 ~p:0.1 ~q:0.1 ()));
  check_true "parts 65" (raises (fun () -> Edge_meg.Classic.make ~parts:65 ~n:32 ~p:0.1 ~q:0.1 ()));
  check_true "parts 64 accepted"
    (not (raises (fun () -> Edge_meg.Classic.make ~parts:64 ~n:32 ~p:0.1 ~q:0.1 ())))

(* Regression: Full init and Stationary init with alpha >= 1 (q = 0)
   used to loop Hashtbl.replace over all Pairs.total n entries; both now
   append the whole universe in one index-order walk that draws
   nothing. The observable contract at small n: the first snapshot is
   the complete graph. *)
let test_classic_saturated_inits_bulk_fill () =
  let n = 20 in
  let total = Graph.Pairs.total n in
  let full = Edge_meg.Classic.make ~init:Full ~n ~p:0.1 ~q:0.1 () in
  Core.Dynamic.reset full (rng_of_seed 21);
  Alcotest.(check int) "Full starts complete" total (Core.Dynamic.edge_count full);
  let saturated = Edge_meg.Classic.make ~n ~p:0.3 ~q:0. () in
  Core.Dynamic.reset saturated (rng_of_seed 22);
  Alcotest.(check int) "Stationary with alpha >= 1 starts complete" total
    (Core.Dynamic.edge_count saturated);
  (* q = 0: saturation is absorbing, and the step must draw nothing
     that perturbs determinism — the snapshot stays complete. *)
  Core.Dynamic.step saturated;
  Alcotest.(check int) "still complete after a step" total (Core.Dynamic.edge_count saturated)

(* Exact streams the goldens miss: they pin Classic only at one
   stationary model. Each case hashes the snapshot after reset and, for
   each step, the delta report (births "+", deaths "-", in report
   order) and the snapshot, at seed 11. Cases: Full and Empty starts, a
   saturated stationary start (q = 0), q = 1 (every edge dies: the
   death scan's p >= 1 branch), p = 1 (the exhaustive birth scan), and
   two 64-strip models, over 4 steps each. The 30-step cases hold
   hundreds of pairs per strip, so each 64-strip step merges
   non-trivial runs: a stationary start at q = 0.3 and at q = 1, the
   inversion geometric sampler (p = 0.001, q = 1e-4), Empty starts at
   q = 0 (births only) and at p = 1 (every absent pair is born), and
   [parts:7]. bin/regen_golden.exe prints these digests from a copy of
   [stream_cases] and [stream_digest]. *)
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
  Core.Dynamic.reset g (rng_of_seed 11);
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

let stream_pins =
  [
    ("full", "f7a94627f01945df019c41d082046fe5");
    ("empty", "1a2a38f790349c93824902eb03ab1341");
    ("saturated q=0", "62bc83c45094e73a5df3e4d6758cd4ad");
    ("q=1", "e3534a90609105199217ef2afc59f70c");
    ("p=1", "84c7c66015afd26bb520abf2818e0024");
    ("parts=64", "5e27123686865fda4658779a7825d8ec");
    ("parts=9 p=1", "3da3ac7f3aacbff31ecb61e5cfcf69f3");
    ("parts=64 n=300 q=0.3", "faf5de3a90401392e70376c31e6eabee");
    ("parts=64 n=300 q=1", "c861065c451b8fae76aad6b6c7770bb0");
    ("parts=64 n=300 inversion", "bcb7519422811f952410e0949dc0a007");
    ("parts=64 empty q=0", "4e55283aef09fce114bc4680da3e8600");
    ("parts=64 empty p=1", "d06011cb8814a6c7fae52f314586136c");
    ("parts=7 n=500", "ccc2ffeb4f163aaa17b12a7bf6edbf8e");
  ]

let test_classic_stream_pins () =
  List.iter
    (fun (name, steps, build) ->
      Alcotest.(check string) name (List.assoc name stream_pins) (stream_digest steps build))
    stream_cases

(* --- statistical equivalence against the pre-rewrite oracle --- *)

(* The sparse-set rewrite changed the RNG draw sequence (geometric death
   skips instead of per-edge Bernoullis), so trajectories differ by
   design; the process law must not. Compare Monte-Carlo estimates from
   each strip count — one strip on the reset generator, and 64 strips
   on per-strip substreams — against the Hashtbl oracle within a
   3-sigma confidence band at fixed seeds. *)

let check_within_ci name s_new s_old =
  let k_new = float_of_int (Stats.Summary.count s_new)
  and k_old = float_of_int (Stats.Summary.count s_old) in
  let var s = Stats.Summary.stddev s ** 2. in
  let se = sqrt ((var s_new /. k_new) +. (var s_old /. k_old)) in
  let diff = abs_float (Stats.Summary.mean s_new -. Stats.Summary.mean s_old) in
  if diff > (3. *. se) +. 1e-9 then
    Alcotest.failf "%s: |%.4g - %.4g| = %.4g exceeds 3 se = %.4g" name
      (Stats.Summary.mean s_new) (Stats.Summary.mean s_old) diff (3. *. se)

let test_classic_oracle_stationary_edges () =
  let n = 48 and p = 3. /. 48. and q = 0.4 in
  let sample build seed =
    let s = Stats.Summary.create () in
    let dyn = build () in
    for i = 0 to 39 do
      Core.Dynamic.reset dyn (Prng.Rng.substream (rng_of_seed seed) i);
      (* A few steps leave the exactly-sampled stationary init and
         exercise the birth/death scans. *)
      for _ = 1 to 5 do
        Core.Dynamic.step dyn
      done;
      Stats.Summary.add s (float_of_int (Core.Dynamic.edge_count dyn))
    done;
    s
  in
  let oracle = sample (fun () -> Oracle_edge_meg.make ~n ~p ~q ()) 32 in
  check_within_ci "stationary edge count, one strip vs oracle"
    (sample (fun () -> Edge_meg.Classic.make ~n ~p ~q ()) 31)
    oracle;
  check_within_ci "stationary edge count, 64 strips vs oracle"
    (sample (fun () -> Edge_meg.Classic.make ~parts:64 ~n ~p ~q ()) 35)
    oracle

let test_classic_oracle_flooding_mean () =
  let n = 32 and p = 0.15 and q = 0.3 in
  let mean build seed =
    Core.Flooding.mean_time ~rng:(rng_of_seed seed) ~trials:60 build
  in
  let oracle = mean (fun () -> Oracle_edge_meg.make ~n ~p ~q ()) 34 in
  check_within_ci "flooding mean, one strip vs oracle"
    (mean (fun () -> Edge_meg.Classic.make ~n ~p ~q ()) 33)
    oracle;
  check_within_ci "flooding mean, 64 strips vs oracle"
    (mean (fun () -> Edge_meg.Classic.make ~parts:64 ~n ~p ~q ()) 36)
    oracle

(* --- General --- *)

let on_chain move =
  Markov.Chain.of_rows
    (Array.init 4 (fun s -> [| (s, 1. -. move); ((s + 1) mod 4, move) |]))

let test_general_alpha () =
  let chain = on_chain 0.3 in
  let chi s = s >= 2 in
  check_close ~eps:1e-6 "alpha = pi(on states)" 0.5
    (Edge_meg.General.stationary_alpha ~chain ~chi)

let test_general_matches_two_state () =
  (* A 2-state hidden chain with chi = identity must reproduce the
     classic model's stationary density. *)
  let p = 0.2 and q = 0.4 in
  let chain = Markov.Two_state.chain (Markov.Two_state.make ~p ~q) in
  let chi s = s = 1 in
  check_close ~eps:1e-9 "alpha = p/(p+q)" (p /. (p +. q))
    (Edge_meg.General.stationary_alpha ~chain ~chi)

let test_general_stationary_density () =
  let n = 32 in
  let chain = on_chain 0.3 in
  let chi s = s >= 2 in
  let dyn = Edge_meg.General.make ~n ~chain ~chi () in
  let s = Stats.Summary.create () in
  for i = 0 to 19 do
    Core.Dynamic.reset dyn (Prng.Rng.substream (rng_of_seed 8) i);
    Stats.Summary.add s (float_of_int (Core.Dynamic.edge_count dyn))
  done;
  let expected = 0.5 *. float_of_int (Graph.Pairs.total n) in
  check_close_rel ~rel:0.1 "stationary density" expected (Stats.Summary.mean s)

let test_general_state_init () =
  let chain = on_chain 0.5 in
  let chi s = s >= 2 in
  let dyn = Edge_meg.General.make ~init:(`State 0) ~n:10 ~chain ~chi () in
  Core.Dynamic.reset dyn (rng_of_seed 9);
  Alcotest.(check int) "state 0 is off" 0 (Core.Dynamic.edge_count dyn);
  let dyn_on = Edge_meg.General.make ~init:(`State 2) ~n:10 ~chain ~chi () in
  Core.Dynamic.reset dyn_on (rng_of_seed 9);
  Alcotest.(check int) "state 2 is on" 45 (Core.Dynamic.edge_count dyn_on)

let test_general_dwell_correlation () =
  (* With a slow 4-state cycle, an on edge tends to stay on: measure
     one-step persistence and compare with the 2-state chain of equal
     stationary density, which has persistence 1 - q. *)
  let chain = on_chain 0.05 in
  let chi s = s >= 2 in
  let dyn = Edge_meg.General.make ~n:24 ~chain ~chi () in
  Core.Dynamic.reset dyn (rng_of_seed 10);
  let persist = ref 0 and on_count = ref 0 in
  let prev = ref [] in
  for _ = 1 to 200 do
    let now = Core.Dynamic.snapshot_edges dyn in
    List.iter
      (fun e ->
        incr on_count;
        if List.mem e now then incr persist)
      !prev;
    prev := now;
    Core.Dynamic.step dyn
  done;
  let persistence = float_of_int !persist /. float_of_int !on_count in
  check_true "slow chain gives sticky edges (persistence > 0.9)" (persistence > 0.9)

let test_general_bound_positive () =
  let chain = on_chain 0.25 in
  let chi s = s >= 2 in
  let b = Edge_meg.General.bound ~chain ~chi ~n:64 in
  check_true "bound finite positive" (Float.is_finite b && b > 0.)

let test_general_state_validation () =
  let chain = on_chain 0.25 in
  let dyn = Edge_meg.General.make ~init:(`State 9) ~n:5 ~chain ~chi:(fun _ -> true) () in
  check_true "bad initial state raises"
    (try
       Core.Dynamic.reset dyn (rng_of_seed 11);
       false
     with Invalid_argument _ -> true)

(* --- Opportunistic --- *)

let opp_params =
  {
    Edge_meg.Opportunistic.off_short = 2.;
    off_long = 20.;
    off_mix = 0.7;
    on_short = 1.;
    on_long = 5.;
    on_mix = 0.5;
  }

let test_opportunistic_alpha_consistency () =
  (* Closed-form renewal alpha must agree with the generic chain
     computation. *)
  let closed = Edge_meg.Opportunistic.stationary_alpha opp_params in
  let generic =
    Edge_meg.General.stationary_alpha
      ~chain:(Edge_meg.Opportunistic.chain opp_params)
      ~chi:Edge_meg.Opportunistic.chi
  in
  check_close ~eps:1e-9 "renewal = chain stationary" closed generic;
  let expected = 3. /. (3. +. (0.7 *. 2.) +. (0.3 *. 20.)) in
  check_close ~eps:1e-9 "hand value" expected closed

let test_opportunistic_means () =
  check_close ~eps:1e-12 "mean off" 7.4 (Edge_meg.Opportunistic.mean_off opp_params);
  check_close ~eps:1e-12 "mean on" 3. (Edge_meg.Opportunistic.mean_on opp_params)

let test_opportunistic_validation () =
  check_true "mean < 1 rejected"
    (try
       ignore (Edge_meg.Opportunistic.chain { opp_params with on_short = 0.5 });
       false
     with Invalid_argument _ -> true)

let test_opportunistic_dwell_times () =
  (* Long contacts should produce measurably longer on-runs than a
     memoryless chain of the same alpha would. *)
  let chain = Edge_meg.Opportunistic.chain opp_params in
  let rng = rng_of_seed 12 in
  let run_lengths = Stats.Summary.create () in
  let state = ref 0 and current_run = ref 0 in
  for _ = 1 to 50_000 do
    state := Markov.Chain.step chain rng !state;
    if Edge_meg.Opportunistic.chi !state then incr current_run
    else if !current_run > 0 then begin
      Stats.Summary.add run_lengths (float_of_int !current_run);
      current_run := 0
    end
  done;
  (* Mean contact duration is on_mix*on_short + (1-on_mix)*on_long = 3. *)
  check_close_rel ~rel:0.15 "mean contact duration" 3. (Stats.Summary.mean run_lengths)

let test_opportunistic_floods () =
  let dyn = Edge_meg.Opportunistic.make ~n:48 opp_params in
  match Core.Flooding.time ~cap:3000 ~rng:(rng_of_seed 13) ~source:0 dyn with
  | Some t -> check_true "floods" (t < 3000)
  | None -> Alcotest.fail "opportunistic model did not flood"

(* Saturated starts would fill every strip's hash set with the whole
   universe, so the 64-strip engine rejects them: with [?parts], and
   from offheap_nodes up without it. Validation runs before any
   allocation, so the 2^17 cases cost nothing (a one-strip set there
   would need two n(n-1)/2-cell arrays, about 137 GB). *)
let test_classic_offheap_rejects_saturated () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  let big = Graph.Storage.offheap_nodes in
  check_true "Full init rejected off-heap"
    (raises (fun () ->
         ignore (Edge_meg.Classic.make ~init:Edge_meg.Classic.Full ~parts:64 ~n:32 ~p:0.1 ~q:0.1 ())));
  check_true "saturated stationary rejected off-heap"
    (raises (fun () -> ignore (Edge_meg.Classic.make ~parts:64 ~n:32 ~p:0.1 ~q:0. ())));
  check_true "Full init rejected at 2^17"
    (raises (fun () ->
         ignore (Edge_meg.Classic.make ~init:Edge_meg.Classic.Full ~n:big ~p:0.1 ~q:0.1 ())));
  check_true "saturated stationary rejected at 2^17"
    (raises (fun () -> ignore (Edge_meg.Classic.make ~n:big ~p:0.1 ~q:0. ())))

(* --- Classic's boundary hook --- *)

(* One strip, 64 and 9 strips, the Full and Empty starts, q = 0, a
   low churn q = 0.01, q = 1, p = 1 and a subsampled view (which
   forwards the hook). *)
let boundary_models n =
  let mk ?init ?parts ?(p = 0.12) ?(q = 0.3) () = Edge_meg.Classic.make ?init ?parts ~n ~p ~q () in
  [
    ("one strip", fun () -> mk ());
    ("parts 64", fun () -> mk ~parts:64 ());
    ("parts 9", fun () -> mk ~parts:9 ~q:0.5 ());
    ("full start", fun () -> mk ~init:Full ());
    ("empty start", fun () -> mk ~init:Empty ~p:0.05 ());
    ("q = 0", fun () -> mk ~q:0. ());
    ("q = 0.01", fun () -> mk ~q:0.01 ());
    ("q = 1", fun () -> mk ~q:1. ());
    ("p = 1", fun () -> mk ~p:1. ~q:0.6 ());
    ("subsample every 3", fun () -> Core.Dynamic.subsample ~every:3 (mk ~q:0.5 ()));
  ]

(* The hook against a brute force over iter_edges: every outside node
   with an inside neighbour, each reported once, and the scan counts
   every live edge. A deltas report read after the hook is the one
   read without it. *)
let q_boundary_bruteforce =
  qtest ~count:60 "boundary = brute force over iter_edges"
    QCheck2.Gen.(
      quad seed_gen (int_range 1 30)
        (int_range 0 (List.length (boundary_models 1) - 1))
        (int_range 0 3))
    (fun (seed, n, which, steps) ->
      let name, build = List.nth (boundary_models n) which in
      let module D = Core.Dynamic in
      let g = build () and twin = build () in
      List.iter (fun g -> D.reset g (rng_of_seed seed)) [ g; twin ];
      for _ = 1 to steps do
        D.step g;
        D.step twin
      done;
      let ctx = Printf.sprintf "%s seed %d n %d steps %d" name seed n steps in
      let scanned = check_boundary ctx g (random_members (rng_of_seed (seed + 1)) n) in
      let report g =
        let acc = ref [] in
        let ok =
          D.deltas g ~birth:(fun u v -> acc := (1, u, v) :: !acc) ~death:(fun u v ->
              acc := (-1, u, v) :: !acc)
        in
        (ok, !acc)
      in
      Alcotest.(check int) (ctx ^ ": scanned edges") (D.edge_count g) scanned;
      report g = report twin)

(* Plain flooding through the native hook reaches the same sets at the
   same times as through the derived one, and either answers once per
   round. *)
let test_boundary_flood_equivalence (name, build) () =
  let n = Core.Dynamic.n (build ()) in
  for seed = 0 to 59 do
    let source = seed mod n in
    let label = Printf.sprintf "%s seed %d" name seed in
    let run g =
      with_counters (fun () -> Core.Flooding.run ~cap:300 ~rng:(rng_of_seed seed) ~source g)
    in
    let native, counters = run (build ()) in
    let derived, derived_counters = run (without_boundary (build ())) in
    Alcotest.(check (option int)) (label ^ ": time") derived.time native.time;
    Alcotest.(check (array int)) (label ^ ": trajectory") derived.trajectory native.trajectory;
    Alcotest.(check (array int)) (label ^ ": arrivals") derived.arrivals native.arrivals;
    List.iter
      (fun counters ->
        Alcotest.(check int) (label ^ ": one boundary per round") (count "flood.rounds" counters)
          (count "flood.snapshots" counters);
        Alcotest.(check int) (label ^ ": no deltas") 0 (count "flood.delta_edges" counters))
      [ counters; derived_counters ]
  done

(* Models built without a native hook answer the derived one: a
   re-wrap, a union, a filter and a subsampled re-wrap of a classic
   edge-MEG. It equals the brute force and counts the edges it read. *)
let test_derived_boundary () =
  let module D = Core.Dynamic in
  let g () = Edge_meg.Classic.make ~n:10 ~p:0.2 ~q:0.5 () in
  List.iter
    (fun (name, g) ->
      D.reset g (rng_of_seed 4);
      let rng = rng_of_seed 5 in
      for step = 0 to 5 do
        let ctx = Printf.sprintf "%s step %d" name step in
        let scanned = check_boundary ctx g (random_members rng 10) in
        Alcotest.(check int) (ctx ^ ": edges read") (D.edge_count g) scanned;
        D.step g
      done)
    [
      ("re-wrap", without_boundary (g ()));
      ("union", D.union (g ()) (g ()));
      ("filter_edges", D.filter_edges ~p_keep:0.5 (g ()));
      ("subsampled re-wrap", D.subsample ~every:2 (without_boundary (g ())));
    ]

let test_boundary_length_mismatch () =
  let g = Edge_meg.Classic.make ~n:10 ~p:0.2 ~q:0.5 () in
  Core.Dynamic.reset g (rng_of_seed 3);
  List.iter
    (fun len ->
      check_true
        (Printf.sprintf "inside of length %d raises" len)
        (try
           ignore (Core.Dynamic.boundary g (Graph.Storage.Bitset.create len) ignore);
           false
         with Invalid_argument _ -> true))
    [ 9; 11 ]

let suites =
  [
    ( "edge_meg.classic_boundary",
      [
        Alcotest.test_case "derived hook" `Quick test_derived_boundary;
        Alcotest.test_case "wrong-length inside" `Quick test_boundary_length_mismatch;
        q_boundary_bruteforce;
      ]
      @ List.map
          (fun ((name, _) as model) ->
            Alcotest.test_case ("flood: " ^ name) `Quick (test_boundary_flood_equivalence model))
          (boundary_models 40) );
    ( "edge_meg.classic",
      [
        Alcotest.test_case "stationary density at init" `Quick test_classic_stationary_density;
        Alcotest.test_case "density stable under steps" `Quick
          test_classic_density_preserved_by_steps;
        Alcotest.test_case "empty init" `Quick test_classic_empty_init;
        Alcotest.test_case "full init" `Quick test_classic_full_init;
        Alcotest.test_case "q=0 monotone growth" `Quick test_classic_q0_monotone_growth;
        Alcotest.test_case "p=0 monotone decay" `Quick test_classic_p0_monotone_decay;
        Alcotest.test_case "deterministic per seed" `Quick test_classic_deterministic_per_seed;
        Alcotest.test_case "validation" `Quick test_classic_validation;
        Alcotest.test_case "saturated inits use bulk fill" `Quick
          test_classic_saturated_inits_bulk_fill;
        Alcotest.test_case "stream pins" `Quick test_classic_stream_pins;
        Alcotest.test_case "oracle: stationary edges within CI" `Quick
          test_classic_oracle_stationary_edges;
        Alcotest.test_case "oracle: flooding mean within CI" `Quick
          test_classic_oracle_flooding_mean;
        Alcotest.test_case "offheap rejects saturated inits" `Quick
          test_classic_offheap_rejects_saturated;
        q_classic_edges_valid;
      ] );
    ( "edge_meg.general",
      [
        Alcotest.test_case "alpha from chi" `Quick test_general_alpha;
        Alcotest.test_case "matches two-state" `Quick test_general_matches_two_state;
        Alcotest.test_case "stationary density" `Quick test_general_stationary_density;
        Alcotest.test_case "state init" `Quick test_general_state_init;
        Alcotest.test_case "dwell correlation" `Quick test_general_dwell_correlation;
        Alcotest.test_case "bound positive" `Quick test_general_bound_positive;
        Alcotest.test_case "state validation" `Quick test_general_state_validation;
      ] );
    ( "edge_meg.opportunistic",
      [
        Alcotest.test_case "alpha consistency" `Quick test_opportunistic_alpha_consistency;
        Alcotest.test_case "means" `Quick test_opportunistic_means;
        Alcotest.test_case "validation" `Quick test_opportunistic_validation;
        Alcotest.test_case "dwell times" `Quick test_opportunistic_dwell_times;
        Alcotest.test_case "floods" `Quick test_opportunistic_floods;
      ] );
  ]
