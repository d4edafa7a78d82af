open Helpers

(* --- Static --- *)

let test_of_edges_dedup () =
  let g = Graph.Static.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  Alcotest.(check int) "edges deduplicated" 2 (Graph.Static.m g);
  Alcotest.(check int) "degree 1" 2 (Graph.Static.degree g 1)

let test_of_edges_errors () =
  check_true "self-loop rejected"
    (try
       ignore (Graph.Static.of_edges ~n:3 [ (1, 1) ]);
       false
     with Invalid_argument _ -> true);
  check_true "out of range rejected"
    (try
       ignore (Graph.Static.of_edges ~n:3 [ (0, 3) ]);
       false
     with Invalid_argument _ -> true)

let test_neighbors_sorted () =
  let g = Graph.Static.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted neighbours" [| 0; 1; 3; 4 |] (Graph.Static.neighbors g 2)

let test_iter_edges_each_once () =
  let g = Graph.Builders.cycle 5 in
  let count = ref 0 in
  Graph.Static.iter_edges g (fun u v ->
      incr count;
      check_true "u < v" (u < v));
  Alcotest.(check int) "each edge once" 5 !count

let q_handshake =
  qtest ~count:100 "sum of degrees = 2m" (random_graph_gen ()) (fun g ->
      let sum = ref 0 in
      for u = 0 to Graph.Static.n g - 1 do
        sum := !sum + Graph.Static.degree g u
      done;
      !sum = 2 * Graph.Static.m g)

let q_mem_edge_consistent =
  qtest ~count:100 "mem_edge iff in neighbour list" (random_graph_gen ()) (fun g ->
      let ok = ref true in
      for u = 0 to Graph.Static.n g - 1 do
        for v = 0 to Graph.Static.n g - 1 do
          let in_list = Array.exists (( = ) v) (Graph.Static.neighbors g u) in
          if Graph.Static.mem_edge g u v <> in_list then ok := false
        done
      done;
      !ok)

let q_symmetric =
  qtest ~count:100 "built graphs are symmetric" (random_graph_gen ()) Graph.Static.is_symmetric

let test_degree_regularity () =
  check_close "cycle regularity" 1. (Graph.Static.degree_regularity (Graph.Builders.cycle 6));
  let star = Graph.Builders.star 5 in
  check_close "star regularity" 4. (Graph.Static.degree_regularity star);
  let lonely = Graph.Static.of_edges ~n:3 [ (0, 1) ] in
  check_true "isolated vertex gives infinity"
    (Graph.Static.degree_regularity lonely = infinity)

(* --- Builders --- *)

let test_grid_structure () =
  let g = Graph.Builders.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "vertices" 12 (Graph.Static.n g);
  Alcotest.(check int) "edges" ((3 * 3) + (2 * 4)) (Graph.Static.m g);
  check_true "corner degree 2" (Graph.Static.degree g 0 = 2);
  check_true "interior degree 4" (Graph.Static.degree g (Graph.Builders.grid_index ~cols:4 1 1) = 4)

let test_grid_coords_roundtrip () =
  let cols = 7 in
  for v = 0 to 34 do
    let r, c = Graph.Builders.grid_coords ~cols v in
    Alcotest.(check int) "roundtrip" v (Graph.Builders.grid_index ~cols r c)
  done

let test_torus_regular () =
  let g = Graph.Builders.torus ~rows:4 ~cols:5 in
  Alcotest.(check int) "edges" (2 * 4 * 5) (Graph.Static.m g);
  for v = 0 to Graph.Static.n g - 1 do
    Alcotest.(check int) "degree 4" 4 (Graph.Static.degree g v)
  done

let test_augmented_k1_is_grid () =
  let a = Graph.Builders.augmented_grid ~rows:4 ~cols:5 ~k:1 in
  let g = Graph.Builders.grid ~rows:4 ~cols:5 in
  Alcotest.(check (list (pair int int))) "same edges" (Graph.Static.edges g) (Graph.Static.edges a)

let test_augmented_matches_bruteforce () =
  let rows = 4 and cols = 4 and k = 2 in
  let a = Graph.Builders.augmented_grid ~rows ~cols ~k in
  let manhattan u v =
    let r1, c1 = Graph.Builders.grid_coords ~cols u in
    let r2, c2 = Graph.Builders.grid_coords ~cols v in
    abs (r1 - r2) + abs (c1 - c2)
  in
  let expected = ref [] in
  for u = 0 to (rows * cols) - 1 do
    for v = u + 1 to (rows * cols) - 1 do
      if manhattan u v <= k then expected := (u, v) :: !expected
    done
  done;
  Alcotest.(check (list (pair int int)))
    "augmented = brute force"
    (List.sort compare !expected)
    (Graph.Static.edges a)

let test_small_families () =
  Alcotest.(check int) "cycle m" 6 (Graph.Static.m (Graph.Builders.cycle 6));
  Alcotest.(check int) "path m" 5 (Graph.Static.m (Graph.Builders.path_graph 6));
  Alcotest.(check int) "complete m" 15 (Graph.Static.m (Graph.Builders.complete 6));
  Alcotest.(check int) "star m" 5 (Graph.Static.m (Graph.Builders.star 6))

let test_hypercube () =
  let g = Graph.Builders.hypercube 4 in
  Alcotest.(check int) "vertices" 16 (Graph.Static.n g);
  Alcotest.(check int) "edges d*2^(d-1)" 32 (Graph.Static.m g);
  for v = 0 to 15 do
    Alcotest.(check int) "d-regular" 4 (Graph.Static.degree g v)
  done;
  Alcotest.(check int) "diameter = d" 4 (Graph.Traverse.diameter g);
  check_close "regularity 1" 1. (Graph.Static.degree_regularity g)

let test_complete_bipartite () =
  let g = Graph.Builders.complete_bipartite 3 4 in
  Alcotest.(check int) "vertices" 7 (Graph.Static.n g);
  Alcotest.(check int) "edges" 12 (Graph.Static.m g);
  Alcotest.(check int) "left degree" 4 (Graph.Static.degree g 0);
  Alcotest.(check int) "right degree" 3 (Graph.Static.degree g 5);
  check_true "no intra-side edges" (not (Graph.Static.mem_edge g 0 1))

let test_binary_tree () =
  let g = Graph.Builders.binary_tree 7 in
  Alcotest.(check int) "edges = n-1" 6 (Graph.Static.m g);
  check_true "connected" (Graph.Traverse.is_connected g);
  Alcotest.(check int) "root degree" 2 (Graph.Static.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.Static.degree g 6);
  Alcotest.(check int) "diameter" 4 (Graph.Traverse.diameter g)

let test_random_regular () =
  let rng = rng_of_seed 3 in
  let g = Graph.Builders.random_regular ~rng ~n:20 ~d:4 in
  Alcotest.(check int) "edges nd/2" 40 (Graph.Static.m g);
  for v = 0 to 19 do
    Alcotest.(check int) "exactly d-regular" 4 (Graph.Static.degree g v)
  done

let test_random_regular_validation () =
  let rng = rng_of_seed 4 in
  check_true "odd nd rejected"
    (try
       ignore (Graph.Builders.random_regular ~rng ~n:5 ~d:3);
       false
     with Invalid_argument _ -> true);
  check_true "d >= n rejected"
    (try
       ignore (Graph.Builders.random_regular ~rng ~n:4 ~d:4);
       false
     with Invalid_argument _ -> true)

let q_random_regular_simple =
  qtest ~count:30 "random regular graphs are simple and regular"
    QCheck2.Gen.(pair seed_gen (int_range 4 20))
    (fun (seed, half_n) ->
      let n = 2 * half_n in
      let g = Graph.Builders.random_regular ~rng:(Prng.Rng.of_seed seed) ~n ~d:3 in
      Graph.Static.m g = 3 * n / 2
      &&
      let ok = ref true in
      for v = 0 to n - 1 do
        if Graph.Static.degree g v <> 3 then ok := false
      done;
      !ok && Graph.Static.is_symmetric g)

let test_erdos_renyi_extremes () =
  let rng = rng_of_seed 1 in
  Alcotest.(check int) "p=0 empty" 0 (Graph.Static.m (Graph.Builders.erdos_renyi ~rng ~n:20 ~p:0.));
  Alcotest.(check int) "p=1 complete" 190
    (Graph.Static.m (Graph.Builders.erdos_renyi ~rng ~n:20 ~p:1.))

let test_erdos_renyi_density () =
  let rng = rng_of_seed 2 in
  let n = 100 and p = 0.3 in
  let s = Stats.Summary.create () in
  for _ = 1 to 30 do
    Stats.Summary.add s (float_of_int (Graph.Static.m (Graph.Builders.erdos_renyi ~rng ~n ~p)))
  done;
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  check_close_rel ~rel:0.05 "G(n,p) edge count" expected (Stats.Summary.mean s)

let q_random_geometric_bruteforce =
  qtest ~count:50 "random geometric = brute force"
    QCheck2.Gen.(pair seed_gen (int_range 2 25))
    (fun (seed, n) ->
      (* Rebuild the same points by re-seeding, then compare edge sets
         against an O(n^2) check. *)
      let radius = 0.3 in
      let g = Graph.Builders.random_geometric ~rng:(Prng.Rng.of_seed seed) ~n ~radius in
      let rng = Prng.Rng.of_seed seed in
      let xs = Array.init n (fun _ -> Prng.Rng.unit_float rng) in
      let ys = Array.init n (fun _ -> Prng.Rng.unit_float rng) in
      let expected = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
          if (dx *. dx) +. (dy *. dy) <= radius *. radius then expected := (i, j) :: !expected
        done
      done;
      List.sort compare !expected = Graph.Static.edges g)

(* --- Edge_buffer --- *)

let test_buffer_push_clear () =
  let b = Graph.Edge_buffer.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Graph.Edge_buffer.length b);
  for i = 0 to 9 do
    Graph.Edge_buffer.push b i (i + 1)
  done;
  Alcotest.(check int) "ten edges" 10 (Graph.Edge_buffer.length b);
  check_true "grew" (Graph.Edge_buffer.capacity b >= 10);
  Alcotest.(check int) "src 3" 3 (Graph.Edge_buffer.src b 3);
  Alcotest.(check int) "dst 3" 4 (Graph.Edge_buffer.dst b 3);
  let cap = Graph.Edge_buffer.capacity b in
  Graph.Edge_buffer.clear b;
  Alcotest.(check int) "cleared" 0 (Graph.Edge_buffer.length b);
  Alcotest.(check int) "storage kept" cap (Graph.Edge_buffer.capacity b);
  Graph.Edge_buffer.push b 7 8;
  Alcotest.(check (list (pair int int))) "reusable" [ (7, 8) ] (Graph.Edge_buffer.to_list b)

let test_buffer_iter_order () =
  let b = Graph.Edge_buffer.create () in
  List.iter (fun (u, v) -> Graph.Edge_buffer.push b u v) [ (3, 1); (0, 2); (3, 1) ];
  let seen = ref [] in
  Graph.Edge_buffer.iter b (fun u v -> seen := (u, v) :: !seen);
  Alcotest.(check (list (pair int int)))
    "buffer order, orientation kept" [ (3, 1); (0, 2); (3, 1) ] (List.rev !seen)

(* sort_dedup against the obvious list-based reference. *)
let q_buffer_sort_dedup =
  qtest ~count:200 "sort_dedup = sort_uniq of normalised pairs"
    QCheck2.Gen.(pair seed_gen (int_range 0 200))
    (fun (seed, len) ->
      let rng = Prng.Rng.of_seed seed in
      let b = Graph.Edge_buffer.create () in
      let edges = ref [] in
      for _ = 1 to len do
        let u = Prng.Rng.int rng 12 and v = Prng.Rng.int rng 12 in
        Graph.Edge_buffer.push b u v;
        edges := (min u v, max u v) :: !edges
      done;
      Graph.Edge_buffer.sort_dedup b;
      Graph.Edge_buffer.to_list b = List.sort_uniq compare !edges)

(* of_buffer and of_edge_array build the same CSR as the list path. *)
let q_of_buffer_consistent =
  qtest ~count:100 "of_buffer = of_edges" (random_graph_gen ()) (fun g ->
      let n = Graph.Static.n g in
      let edges = Graph.Static.edges g in
      let b = Graph.Edge_buffer.create () in
      (* Push each edge twice in mixed orientation: of_buffer dedups. *)
      List.iter
        (fun (u, v) ->
          Graph.Edge_buffer.push b v u;
          Graph.Edge_buffer.push b u v)
        edges;
      let g' = Graph.Static.of_buffer ~n b in
      let g'' = Graph.Static.of_edge_array ~n (Array.of_list edges) in
      Graph.Static.edges g' = edges
      && Graph.Static.edges g'' = edges
      &&
      let same = ref true in
      for u = 0 to n - 1 do
        if Graph.Static.neighbors g' u <> Graph.Static.neighbors g u then same := false
      done;
      !same)

let test_of_buffer_errors () =
  let b = Graph.Edge_buffer.create () in
  Graph.Edge_buffer.push b 1 1;
  check_true "self-loop rejected"
    (try
       ignore (Graph.Static.of_buffer ~n:3 b);
       false
     with Invalid_argument _ -> true);
  Graph.Edge_buffer.clear b;
  Graph.Edge_buffer.push b 0 3;
  check_true "out of range rejected"
    (try
       ignore (Graph.Static.of_buffer ~n:3 b);
       false
     with Invalid_argument _ -> true)

(* A graph read into a buffer through the constant process's snapshot
   and rebuilt from it is the same graph. *)
let test_of_buffer_roundtrip () =
  let g = Graph.Builders.augmented_grid ~rows:3 ~cols:4 ~k:2 in
  let d = Core.Dynamic.of_static g in
  Core.Dynamic.reset d (rng_of_seed 1);
  let b = Graph.Edge_buffer.create () in
  Core.Dynamic.fill_edges d b;
  let g' = Graph.Static.of_buffer ~n:(Graph.Static.n g) b in
  Alcotest.(check (list (pair int int)))
    "roundtrip" (Graph.Static.edges g) (Graph.Static.edges g')

(* --- Pairs --- *)

let q_pairs_roundtrip =
  qtest ~count:200 "encode/decode roundtrip" (QCheck2.Gen.int_range 2 60) (fun n ->
      let ok = ref true in
      for idx = 0 to Graph.Pairs.total n - 1 do
        let u, v = Graph.Pairs.decode n idx in
        if u >= v || Graph.Pairs.encode n u v <> idx then ok := false
      done;
      !ok)

let test_pairs_encode_symmetric () =
  Alcotest.(check int) "order-insensitive" (Graph.Pairs.encode 10 7 3) (Graph.Pairs.encode 10 3 7)

let test_pairs_total () =
  Alcotest.(check int) "total 5" 10 (Graph.Pairs.total 5);
  Alcotest.(check int) "total 2" 1 (Graph.Pairs.total 2)

(* --- Traverse --- *)

let test_bfs_path () =
  let g = Graph.Builders.path_graph 6 in
  let d = Graph.Traverse.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5 |] d

let test_bfs_unreachable () =
  let g = Graph.Static.of_edges ~n:4 [ (0, 1) ] in
  let d = Graph.Traverse.bfs_distances g 0 in
  Alcotest.(check int) "unreachable -1" (-1) d.(2)

let test_components () =
  let g = Graph.Static.of_edges ~n:7 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check int) "components" 4 (Graph.Traverse.n_components g);
  Alcotest.(check int) "largest" 3 (Graph.Traverse.largest_component_size g);
  Alcotest.(check int) "isolated" 2 (Graph.Traverse.n_isolated g);
  check_true "not connected" (not (Graph.Traverse.is_connected g))

let test_diameter_grid () =
  let g = Graph.Builders.grid ~rows:3 ~cols:5 in
  Alcotest.(check int) "grid diameter" 6 (Graph.Traverse.diameter g)

let test_diameter_cycle () =
  Alcotest.(check int) "even cycle" 4 (Graph.Traverse.diameter (Graph.Builders.cycle 8));
  Alcotest.(check int) "odd cycle" 3 (Graph.Traverse.diameter (Graph.Builders.cycle 7))

let q_two_sweep_le_diameter =
  qtest ~count:100 "two-sweep lower bound <= diameter" (random_graph_gen ~max_n:20 ())
    (fun g ->
      not (Graph.Traverse.is_connected g)
      || Graph.Traverse.diameter_lower_bound g <= Graph.Traverse.diameter g)

let test_two_sweep_tight_on_grid () =
  let g = Graph.Builders.grid ~rows:5 ~cols:5 in
  Alcotest.(check int) "tight on grid" (Graph.Traverse.diameter g)
    (Graph.Traverse.diameter_lower_bound g)

let test_eccentricity_disconnected () =
  let g = Graph.Static.of_edges ~n:3 [ (0, 1) ] in
  check_true "disconnected eccentricity raises"
    (try
       ignore (Graph.Traverse.eccentricity g 0);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "graph.static",
      [
        Alcotest.test_case "dedup" `Quick test_of_edges_dedup;
        Alcotest.test_case "construction errors" `Quick test_of_edges_errors;
        Alcotest.test_case "neighbours sorted" `Quick test_neighbors_sorted;
        Alcotest.test_case "iter_edges once" `Quick test_iter_edges_each_once;
        Alcotest.test_case "degree regularity" `Quick test_degree_regularity;
        q_handshake;
        q_mem_edge_consistent;
        q_symmetric;
      ] );
    ( "graph.builders",
      [
        Alcotest.test_case "grid structure" `Quick test_grid_structure;
        Alcotest.test_case "grid coords roundtrip" `Quick test_grid_coords_roundtrip;
        Alcotest.test_case "torus regular" `Quick test_torus_regular;
        Alcotest.test_case "augmented k=1 = grid" `Quick test_augmented_k1_is_grid;
        Alcotest.test_case "augmented brute force" `Quick test_augmented_matches_bruteforce;
        Alcotest.test_case "small families" `Quick test_small_families;
        Alcotest.test_case "hypercube" `Quick test_hypercube;
        Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
        Alcotest.test_case "binary tree" `Quick test_binary_tree;
        Alcotest.test_case "random regular" `Quick test_random_regular;
        Alcotest.test_case "random regular validation" `Quick test_random_regular_validation;
        Alcotest.test_case "G(n,p) extremes" `Quick test_erdos_renyi_extremes;
        q_random_regular_simple;
        Alcotest.test_case "G(n,p) density" `Quick test_erdos_renyi_density;
        q_random_geometric_bruteforce;
      ] );
    ( "graph.edge_buffer",
      [
        Alcotest.test_case "push/clear/reuse" `Quick test_buffer_push_clear;
        Alcotest.test_case "iter order" `Quick test_buffer_iter_order;
        q_buffer_sort_dedup;
        q_of_buffer_consistent;
        Alcotest.test_case "of_buffer errors" `Quick test_of_buffer_errors;
        Alcotest.test_case "of_buffer roundtrip" `Quick test_of_buffer_roundtrip;
      ] );
    ( "graph.pairs",
      [
        Alcotest.test_case "encode symmetric" `Quick test_pairs_encode_symmetric;
        Alcotest.test_case "totals" `Quick test_pairs_total;
        q_pairs_roundtrip;
      ] );
    ( "graph.traverse",
      [
        Alcotest.test_case "bfs on path" `Quick test_bfs_path;
        Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "diameter grid" `Quick test_diameter_grid;
        Alcotest.test_case "diameter cycle" `Quick test_diameter_cycle;
        Alcotest.test_case "two-sweep tight on grid" `Quick test_two_sweep_tight_on_grid;
        Alcotest.test_case "eccentricity disconnected" `Quick test_eccentricity_disconnected;
        q_two_sweep_le_diameter;
      ] );
  ]
