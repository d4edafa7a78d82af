(* Shared test utilities: approximate float assertions and common QCheck
   generators. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Float.is_finite actual) || abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %.3g)" msg expected actual eps

let check_close_rel ?(rel = 0.05) msg expected actual =
  let denom = Float.max (abs_float expected) 1e-12 in
  if not (Float.is_finite actual) || abs_float (expected -. actual) /. denom > rel then
    Alcotest.failf "%s: expected %.6g within %.1f%%, got %.6g" msg expected (100. *. rel) actual

let check_true msg b = Alcotest.(check bool) msg true b

let qtest ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let rng_of_seed = Prng.Rng.of_seed

(* [f ()] with metrics on, paired with the counter deltas it recorded;
   [count key counters] reads one of them (0 when never charged). *)
let with_counters f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Obs.Metrics.disable ())
    (fun () -> Obs.Metrics.with_scope f)

let count key counters = Option.value ~default:0 (List.assoc_opt key counters)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* The same process built without a hook, so it answers the boundary
   query through the one [Dynamic.make] derives from [iter_edges]. *)
let without_boundary g =
  let module D = Core.Dynamic in
  D.make ~n:(D.n g) ~expected_edges:(D.expected_edges g) ~reset:(D.reset g)
    ~step:(fun () -> D.step g)
    ~iter_edges:(D.iter_edges g) ()

(* A random membership vector of length [n], at a density itself drawn
   from [rng]. *)
let random_members rng n =
  let density = Prng.Rng.unit_float rng in
  Array.init n (fun _ -> Prng.Rng.unit_float rng < density)

(* [Core.Dynamic.boundary] against a brute force over [iter_edges]:
   every node outside [member] with a neighbour inside it in the
   current snapshot is reported exactly once, and no other node is.
   Returns the hook's work count. *)
let check_boundary ctx g member =
  let module D = Core.Dynamic in
  let n = D.n g in
  let inside = Graph.Storage.Bitset.create n in
  Array.iteri (fun i b -> if b then Graph.Storage.Bitset.set inside i) member;
  let seen = Array.make n 0 in
  let scanned = D.boundary g inside (fun v -> seen.(v) <- seen.(v) + 1) in
  let revealed = Array.make n 0 in
  D.iter_edges g (fun u v ->
      if member.(u) && not member.(v) then revealed.(v) <- 1;
      if member.(v) && not member.(u) then revealed.(u) <- 1);
  if seen <> revealed then Alcotest.failf "%s: reported set differs from the brute force" ctx;
  scanned

(* A generator of (seed, n) pairs for randomised structures. *)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let small_n_gen = QCheck2.Gen.int_range 1 40

(* Random undirected graph on up to [max_n] vertices built through the
   library's own G(n, p) sampler, driven by a generated seed. *)
let random_graph_gen ?(max_n = 30) () =
  QCheck2.Gen.(
    map2
      (fun seed n ->
        let rng = Prng.Rng.of_seed seed in
        let p = 0.2 +. Prng.Rng.float rng 0.5 in
        Graph.Builders.erdos_renyi ~rng ~n ~p)
      seed_gen (int_range 2 max_n))

let float_array_gen =
  QCheck2.Gen.(array_size (int_range 1 50) (float_range (-100.) 100.))

(* A probability vector of the given length derived from a seed. *)
let prob_vector seed len =
  let rng = Prng.Rng.of_seed seed in
  let raw = Array.init len (fun _ -> 0.01 +. Prng.Rng.unit_float rng) in
  Stats.Distance.normalize raw
