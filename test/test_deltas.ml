open Helpers

(* The delta contract, end to end: a {!Graph.Mutable_adj} kept in sync
   through {!Core.Adj_sync} — applying each step's birth/death report
   when the model emits one, rebuilding when it declines — must hold
   exactly the edge multiset a fresh [fill_edges] enumeration of the
   same snapshot produces, for every registered model and combinator,
   after any number of steps. Models without the hook degenerate to
   rebuild-correctness, which is the fallback the kernels rely on. *)

let canonical_of_adj adj =
  let acc = ref [] in
  Graph.Mutable_adj.iter_edges adj (fun u v -> acc := (u, v) :: !acc);
  List.sort compare !acc

let canonical_of_fill g =
  let buf = Graph.Edge_buffer.create () in
  Core.Dynamic.fill_edges g buf;
  let acc = ref [] in
  Graph.Edge_buffer.iter buf (fun u v -> acc := (min u v, max u v) :: !acc);
  List.sort compare !acc

(* Builders beyond Test_fill_edges's list, exercising the delta paths
   that list misses: delta-forwarding union (both operands capable),
   filter-over-union (multiset cache diffs), and a sticky node-MEG
   whose per-step change set stays under the decline budget, so its
   hook actually emits (the fill_edges list's fast-churn chain always
   declines). *)
let sticky_chain =
  Markov.Chain.of_rows
    (Array.init 6 (fun s -> [| (s, 0.9); ((s + 1) mod 6, 0.1) |]))

let extra_builders : (string * (unit -> Core.Dynamic.t)) list =
  [
    ( "union.two_classics",
      fun () ->
        Core.Dynamic.union
          (Edge_meg.Classic.make ~n:12 ~p:0.12 ~q:0.4 ())
          (Edge_meg.Classic.make ~n:12 ~p:0.2 ~q:0.6 ()) );
    ( "filter.union",
      fun () ->
        Core.Dynamic.filter_edges ~p_keep:0.5
          (Core.Dynamic.union
             (Edge_meg.Classic.make ~n:10 ~p:0.2 ~q:0.5 ())
             (Edge_meg.Classic.make ~n:10 ~p:0.15 ~q:0.3 ())) );
    ( "node_meg.sticky",
      fun () ->
        Node_meg.Model.make ~n:16
          (Node_meg.Model.space ~chain:sticky_chain ~connect:(fun x y ->
               let d = abs (x - y) in
               min d (6 - d) <= 1)) );
  ]

let all_builders = Test_fill_edges.builders @ extra_builders

let test_delta_matches_snapshot (name, build) () =
  List.iter
    (fun seed ->
      List.iter
        (fun k ->
          let g = build () in
          Core.Dynamic.reset g (rng_of_seed seed);
          let sync = Core.Adj_sync.create g in
          Core.Adj_sync.ensure sync;
          for _ = 1 to k do
            Core.Dynamic.step g;
            Core.Adj_sync.advance sync;
            Core.Adj_sync.ensure sync
          done;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s seed=%d k=%d" name seed k)
            (canonical_of_fill g)
            (canonical_of_adj (Core.Adj_sync.adj sync)))
        [ 1; 10; 100 ])
    [ 42; 7 ]

(* The incremental path must actually carry delta-capable models: a
   constant process reports empty deltas forever, so the one initial
   build must be the only refresh no matter how many steps pass. *)
let test_static_never_rebuilds () =
  let g = Core.Dynamic.of_static (Graph.Builders.cycle 9) in
  Core.Dynamic.reset g (rng_of_seed 1);
  let sync = Core.Adj_sync.create g in
  for _ = 1 to 50 do
    Core.Adj_sync.ensure sync;
    Core.Dynamic.step g;
    Core.Adj_sync.advance sync
  done;
  Alcotest.(check int) "one refresh" 1 (Core.Adj_sync.refreshes sync);
  Alcotest.(check int) "no delta ops" 0 (Core.Adj_sync.delta_ops sync)

let test_classic_stays_incremental () =
  (* Low churn on purpose: per-step delta well under Adj_sync's
     apply-vs-rebuild crossover (~(2m + n)/5), so every advance takes
     the incremental path. High-churn regimes are *supposed* to
     rebuild — that choice is the heuristic's job, not a regression. *)
  let g = Edge_meg.Classic.make ~n:20 ~p:0.05 ~q:0.05 () in
  Core.Dynamic.reset g (rng_of_seed 5);
  let sync = Core.Adj_sync.create g in
  for _ = 1 to 30 do
    Core.Adj_sync.ensure sync;
    Core.Dynamic.step g;
    Core.Adj_sync.advance sync
  done;
  Alcotest.(check int) "one refresh over 30 steps" 1 (Core.Adj_sync.refreshes sync);
  check_true "deltas were applied" (Core.Adj_sync.delta_ops sync > 0)

(* A model without the hook must decline every step and never pretend
   otherwise. *)
let test_non_capable_declines () =
  let g = Mobility.Random_walk_model.dynamic ~n:10 ~m:4 ~r:1.2 () in
  check_true "no delta capability" (not (Core.Dynamic.has_deltas g));
  Core.Dynamic.reset g (rng_of_seed 2);
  Core.Dynamic.step g;
  check_true "deltas returns false"
    (not (Core.Dynamic.deltas g ~birth:(fun _ _ -> ()) ~death:(fun _ _ -> ())))

(* --- Mutable_adj unit behaviour --- *)

let test_adj_basics () =
  let a = Graph.Mutable_adj.create ~n:5 in
  Alcotest.(check int) "empty degree" 0 (Graph.Mutable_adj.degree a 3);
  Graph.Mutable_adj.add a 0 1;
  Graph.Mutable_adj.add a 1 2;
  Graph.Mutable_adj.add a 4 1;
  Alcotest.(check int) "deg 1" 3 (Graph.Mutable_adj.degree a 1);
  Alcotest.(check int) "deg 0" 1 (Graph.Mutable_adj.degree a 0);
  Alcotest.(check int) "entries" 6 (Graph.Mutable_adj.entries a);
  Alcotest.(check int) "edge_count" 3 (Graph.Mutable_adj.edge_count a);
  Graph.Mutable_adj.remove a 2 1;
  Alcotest.(check int) "deg 1 after remove" 2 (Graph.Mutable_adj.degree a 1);
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1); (1, 4) ]
    (let acc = ref [] in
     Graph.Mutable_adj.iter_edges a (fun u v -> acc := (u, v) :: !acc);
     List.sort compare !acc)

let test_adj_multiset () =
  let a = Graph.Mutable_adj.create ~n:3 in
  Graph.Mutable_adj.add a 0 1;
  Graph.Mutable_adj.add a 0 1;
  Alcotest.(check int) "two copies" 2 (Graph.Mutable_adj.degree a 0);
  Graph.Mutable_adj.remove a 0 1;
  Alcotest.(check int) "one copy left" 1 (Graph.Mutable_adj.degree a 0);
  Graph.Mutable_adj.remove a 0 1;
  Alcotest.(check int) "none left" 0 (Graph.Mutable_adj.degree a 0)

let test_adj_errors () =
  let a = Graph.Mutable_adj.create ~n:4 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_true "self-loop add raises" (raises (fun () -> Graph.Mutable_adj.add a 2 2));
  check_true "out-of-range add raises" (raises (fun () -> Graph.Mutable_adj.add a 0 4));
  check_true "absent remove raises" (raises (fun () -> Graph.Mutable_adj.remove a 0 1));
  Graph.Mutable_adj.add a 0 1;
  Graph.Mutable_adj.clear a;
  Alcotest.(check int) "clear empties" 0 (Graph.Mutable_adj.entries a);
  check_true "remove after clear raises" (raises (fun () -> Graph.Mutable_adj.remove a 0 1))

(* A test-local reference for the row rules: per-node OCaml arrays
   that append at the end and swap-remove the first copy found. After
   every add/remove/clear the arena's rows must hold the same entries
   in the same ORDER, because neighbour picks index rows positionally
   and the gossip/push coin streams depend on it. Removals pick a
   random present edge, so most of them leave a hole mid-row. *)
let q_adj_matches_reference =
  qtest ~count:150 "rows match the array reference in order"
    QCheck2.Gen.(pair seed_gen (int_range 2 24))
    (fun (seed, n) ->
      let rng = Prng.Rng.of_seed seed in
      let a = Graph.Mutable_adj.create ~n in
      let rows = Array.make n [||] in
      let push u v = rows.(u) <- Array.append rows.(u) [| v |] in
      let swap_remove u v =
        let row = rows.(u) in
        let d = Array.length row in
        let i = ref 0 in
        while row.(!i) <> v do
          incr i
        done;
        row.(!i) <- row.(d - 1);
        rows.(u) <- Array.sub row 0 (d - 1)
      in
      let present = ref [] in
      let same () =
        Graph.Mutable_adj.entries a = Array.fold_left (fun s r -> s + Array.length r) 0 rows
        && List.for_all
             (fun u ->
               Array.init (Graph.Mutable_adj.degree a u) (Graph.Mutable_adj.neighbor a u)
               = rows.(u))
             (List.init n Fun.id)
      in
      let ok = ref true in
      for _ = 1 to 300 do
        let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
        if u <> v then begin
          match Prng.Rng.int rng 10 with
          | 0 ->
              Graph.Mutable_adj.clear a;
              Array.fill rows 0 n [||];
              present := []
          | k when k < 7 ->
              Graph.Mutable_adj.add a u v;
              push u v;
              push v u;
              present := (u, v) :: !present
          | _ when !present = [] -> ()
          | _ ->
              let k = Prng.Rng.int rng (List.length !present) in
              let u, v = List.nth !present k in
              Graph.Mutable_adj.remove a u v;
              swap_remove u v;
              swap_remove v u;
              present := List.filteri (fun i _ -> i <> k) !present
        end;
        ok := !ok && same ()
      done;
      !ok)

let suites =
  [
    ( "core.deltas",
      List.map
        (fun (name, build) ->
          Alcotest.test_case
            (name ^ " delta-sync = snapshot")
            `Quick
            (test_delta_matches_snapshot (name, build)))
        all_builders
      @ [
          Alcotest.test_case "static never rebuilds" `Quick test_static_never_rebuilds;
          Alcotest.test_case "classic stays incremental" `Quick test_classic_stays_incremental;
          Alcotest.test_case "non-capable declines" `Quick test_non_capable_declines;
        ] );
    ( "graph.mutable_adj",
      [
        Alcotest.test_case "basics" `Quick test_adj_basics;
        Alcotest.test_case "multiset copies" `Quick test_adj_multiset;
        Alcotest.test_case "errors and clear" `Quick test_adj_errors;
        q_adj_matches_reference;
      ] );
  ]
