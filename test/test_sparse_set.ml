open Helpers

(* Graph.Sparse_set: the fixed-universe sparse set behind the
   edge-Markovian state engine. Correctness is checked against a
   Hashtbl model under random operation sequences, and the
   geometric-skip subsampling paths are checked to hit each element
   with the stated probability via a chi-square statistic at fixed
   seeds. *)

let test_basics () =
  let s = Graph.Sparse_set.create 10 in
  Alcotest.(check int) "universe" 10 (Graph.Sparse_set.universe s);
  Alcotest.(check int) "empty" 0 (Graph.Sparse_set.length s);
  check_true "nothing present" (not (Graph.Sparse_set.mem s 3));
  Graph.Sparse_set.add s 3;
  Graph.Sparse_set.add s 7;
  Graph.Sparse_set.add s 3;
  Alcotest.(check int) "idempotent add" 2 (Graph.Sparse_set.length s);
  check_true "mem 3" (Graph.Sparse_set.mem s 3);
  check_true "mem 7" (Graph.Sparse_set.mem s 7);
  check_true "not mem 0" (not (Graph.Sparse_set.mem s 0));
  Alcotest.(check int) "dense order" 3 (Graph.Sparse_set.get s 0);
  Graph.Sparse_set.remove s 3;
  check_true "removed" (not (Graph.Sparse_set.mem s 3));
  Alcotest.(check int) "swap-remove keeps 7" 7 (Graph.Sparse_set.get s 0);
  Graph.Sparse_set.remove s 3;
  Alcotest.(check int) "remove absent is a no-op" 1 (Graph.Sparse_set.length s);
  Graph.Sparse_set.clear s;
  Alcotest.(check int) "clear" 0 (Graph.Sparse_set.length s);
  check_true "clear disarms stale positions" (not (Graph.Sparse_set.mem s 7))

let test_fill_all () =
  let s = Graph.Sparse_set.create 25 in
  Graph.Sparse_set.add s 13;
  Graph.Sparse_set.fill_all s;
  Alcotest.(check int) "full" 25 (Graph.Sparse_set.length s);
  for x = 0 to 24 do
    check_true "every element present" (Graph.Sparse_set.mem s x)
  done;
  Graph.Sparse_set.remove s 0;
  Alcotest.(check int) "swap-remove from full" 24 (Graph.Sparse_set.length s);
  check_true "0 gone" (not (Graph.Sparse_set.mem s 0))

let elements s =
  let acc = ref [] in
  Graph.Sparse_set.iter s (fun x -> acc := x :: !acc);
  List.sort compare !acc

(* Random add/remove/clear/fill_all sequences vs a Hashtbl model:
   membership, cardinality and the dense iteration must agree at every
   step. *)
let q_vs_hashtbl_model =
  qtest ~count:200 "random op sequences match a Hashtbl model"
    QCheck2.Gen.(pair seed_gen (int_range 1 80))
    (fun (seed, universe) ->
      let rng = Prng.Rng.of_seed seed in
      let s = Graph.Sparse_set.create universe in
      let model = Hashtbl.create 64 in
      let ok = ref true in
      for _ = 1 to 200 do
        let x = Prng.Rng.int rng universe in
        (match Prng.Rng.int rng 20 with
        | 0 ->
            Graph.Sparse_set.clear s;
            Hashtbl.reset model
        | 1 ->
            Graph.Sparse_set.fill_all s;
            Hashtbl.reset model;
            for y = 0 to universe - 1 do
              Hashtbl.replace model y ()
            done
        | k when k < 12 ->
            Graph.Sparse_set.add s x;
            Hashtbl.replace model x ()
        | _ ->
            Graph.Sparse_set.remove s x;
            Hashtbl.remove model x);
        ok :=
          !ok
          && Graph.Sparse_set.length s = Hashtbl.length model
          && Graph.Sparse_set.mem s x = Hashtbl.mem model x
      done;
      !ok
      && elements s = List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) model []))

(* remove_geo_pos must remove exactly the elements it reports and
   leave a consistent set behind. *)
let q_remove_geo_consistent =
  qtest ~count:100 "remove_geo_pos reports exactly what it removes"
    QCheck2.Gen.(pair seed_gen (int_range 1 60))
    (fun (seed, universe) ->
      let rng = Prng.Rng.of_seed seed in
      let s = Graph.Sparse_set.create universe in
      Graph.Sparse_set.fill_all s;
      let removed = ref [] in
      Graph.Sparse_set.remove_geo_pos s (Prng.Rng.Geo.make ~p:0.4) rng (fun x _ ->
          removed := x :: !removed);
      let removed = List.sort compare !removed in
      List.length removed + Graph.Sparse_set.length s = universe
      && List.for_all (fun x -> not (Graph.Sparse_set.mem s x)) removed
      && elements s = List.filter (fun x -> not (List.mem x removed)) (List.init universe Fun.id))

(* Chi-square goodness of fit for the geometric-skip subsample: over T
   passes, element e is hit Binomial(T, p) times, so
   X² = Σ_e (obs_e - Tp)² / (Tp(1-p)) is approximately χ²_k
   (mean k, sd √(2k)). k = 50, so accept [20, 90] ≈ ±3.5 sd — a fixed
   seed makes the check deterministic. *)
let chi_square ~hits ~t ~p =
  let mean = float_of_int t *. p in
  let var = mean *. (1. -. p) in
  Array.fold_left (fun acc h -> acc +. (((float_of_int h -. mean) ** 2.) /. var)) 0. hits

let test_remove_geo_chi_square () =
  let k = 50 and t = 2000 and p = 0.3 in
  let s = Graph.Sparse_set.create k in
  let geo = Prng.Rng.Geo.make ~p in
  let rng = rng_of_seed 4321 in
  let hits = Array.make k 0 in
  for _ = 1 to t do
    Graph.Sparse_set.fill_all s;
    Graph.Sparse_set.remove_geo_pos s geo rng (fun x _ -> hits.(x) <- hits.(x) + 1)
  done;
  let x2 = chi_square ~hits ~t ~p in
  if x2 < 20. || x2 > 90. then
    Alcotest.failf "remove_geo_pos chi-square %.1f outside [20, 90] (k = %d)" x2 k

module S = Graph.Sparse_set

(* Inside the removal scan's callback the set is already compacted:
   the k-th removal (from 0) sees [len0 - 1 - k] members. The classic
   edge-MEG's death walk copies the survivor from that slot into its
   mirror. *)
let q_removal_streams_compacted =
  qtest ~count:100 "removal scans emit into the compacted set"
    QCheck2.Gen.(triple seed_gen (int_range 1 60) (oneofl [ 0.05; 0.35; 0.9 ]))
    (fun (seed, universe, p) ->
      let s = S.create universe in
      for x = 0 to universe - 1 do
        S.add s x
      done;
      let compacted = ref true in
      let k = ref 0 in
      S.remove_geo_pos s (Prng.Rng.Geo.make ~p) (Prng.Rng.of_seed seed) (fun _ _ ->
          if S.length s <> universe - 1 - !k then compacted := false;
          incr k);
      !compacted)

let suites =
  [
    ( "graph.sparse_set",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "fill_all" `Quick test_fill_all;
        Alcotest.test_case "remove_geo_pos chi-square" `Quick test_remove_geo_chi_square;
        q_vs_hashtbl_model;
        q_remove_geo_consistent;
        q_removal_streams_compacted;
      ] );
  ]
