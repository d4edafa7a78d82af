open Helpers

let uniform_cycle k eps =
  let jump = eps /. float_of_int k in
  Markov.Chain.of_rows
    (Array.init k (fun s ->
         Array.append
           [| ((s + 1) mod k, 1. -. eps) |]
           (Array.init k (fun t -> (t, jump)))))

let space chain connect = Node_meg.Model.space ~chain ~connect

let ring k x y =
  let d = abs (x - y) in
  min d (k - d) <= 1

let test_symmetry_enforced () =
  let chain = uniform_cycle 4 0.2 in
  check_true "asymmetric map rejected"
    (try
       ignore (space chain (fun x y -> x < y));
       false
     with Invalid_argument _ -> true)

let test_all_in_out_of_range_rejected () =
  let sp = space (uniform_cycle 4 0.2) (fun x y -> x = y) in
  List.iter
    (fun x ->
      check_true
        (Printf.sprintf "All_in %d rejected at make" x)
        (try
           ignore (Node_meg.Model.make ~init:(All_in x) ~n:5 sp);
           false
         with Invalid_argument _ -> true))
    [ -1; 4 ]

let test_q_of_state_complete () =
  let q = Node_meg.Model.q_of_state (space (uniform_cycle 4 0.2) (fun _ _ -> true)) in
  Array.iter (fun v -> check_close ~eps:1e-9 "q(x)=1 for complete connect" 1. v) q

let test_p_nm_same_state () =
  (* Uniform stationary over k states, connect iff same state:
     P_NM = 1/k, P_NM2 = 1/k^2 => eta = 1. *)
  let k = 8 in
  let sp = space (uniform_cycle k 0.2) (fun x y -> x = y) in
  check_close ~eps:1e-6 "P_NM = 1/k" (1. /. float_of_int k) (Node_meg.Model.p_nm sp);
  check_close ~eps:1e-6 "P_NM2 = 1/k^2" (1. /. float_of_int (k * k)) (Node_meg.Model.p_nm2 sp);
  check_close ~eps:1e-5 "eta = 1" 1. (Node_meg.Model.eta sp)

let test_eta_skewed () =
  (* A chain strongly biased to state 0, connect iff both in state 0:
     q(x) = pi(0) if x = 0 else 0; P = pi0^2, P2 = pi0^3,
     eta = pi0^3 / pi0^4 = 1/pi0 > 1. *)
  let chain =
    Markov.Chain.of_rows [| [| (0, 0.9); (1, 0.1) |]; [| (0, 0.9); (1, 0.1) |] |]
  in
  let sp = space chain (fun x y -> x = 0 && y = 0) in
  let pi0 = 0.9 in
  check_close ~eps:1e-6 "P_NM" (pi0 ** 2.) (Node_meg.Model.p_nm sp);
  check_close ~eps:1e-5 "eta = 1/pi0" (1. /. pi0) (Node_meg.Model.eta sp)

let test_eta_zero_p_rejected () =
  let sp = space (uniform_cycle 3 0.2) (fun _ _ -> false) in
  check_true "eta with P=0 raises"
    (try
       ignore (Node_meg.Model.eta sp);
       false
     with Invalid_argument _ -> true)

let brute_force_edges states connect =
  let n = Array.length states in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if connect states.(u) states.(v) then acc := (u, v) :: !acc
    done
  done;
  List.sort compare !acc

let q_iter_edges_matches_bruteforce =
  qtest ~count:50 "bucketed edges = brute force"
    QCheck2.Gen.(triple seed_gen (int_range 2 25) (int_range 2 6))
    (fun (seed, n, k) ->
      let connect = ring k in
      let dyn, observe = Node_meg.Model.make_observable ~n (space (uniform_cycle k 0.3) connect) in
      Core.Dynamic.reset dyn (Prng.Rng.of_seed seed);
      Core.Dynamic.step dyn;
      let states = observe () in
      Core.Dynamic.snapshot_edges dyn = brute_force_edges states connect)

let test_states_in_range () =
  let k = 5 in
  let dyn, observe =
    Node_meg.Model.make_observable ~n:10 (space (uniform_cycle k 0.3) (fun x y -> x = y))
  in
  Core.Dynamic.reset dyn (rng_of_seed 1);
  for _ = 1 to 20 do
    Core.Dynamic.step dyn;
    Array.iter (fun s -> check_true "state in range" (s >= 0 && s < k)) (observe ())
  done

let test_all_in_init () =
  let dyn, observe =
    Node_meg.Model.make_observable ~init:(All_in 2) ~n:8
      (space (uniform_cycle 6 0.3) (fun x y -> x = y))
  in
  Core.Dynamic.reset dyn (rng_of_seed 2);
  Array.iter (fun s -> Alcotest.(check int) "all in state 2" 2 s) (observe ());
  (* Same state + same-state connect = complete snapshot. *)
  Alcotest.(check int) "complete clique" 28 (Core.Dynamic.edge_count dyn)

let test_exchangeability () =
  (* Fact 2: the empirical edge probability is the same for any fixed
     pair. Compare two disjoint pairs over many snapshots. *)
  let sp = space (uniform_cycle 6 0.3) (ring 6) in
  let dyn = Node_meg.Model.make ~n:12 sp in
  Core.Dynamic.reset dyn (rng_of_seed 3);
  let hits01 = ref 0 and hits89 = ref 0 in
  let snaps = 4000 in
  for _ = 1 to snaps do
    Core.Dynamic.step dyn;
    let adj = Core.Dynamic.adjacency dyn in
    if List.mem 1 adj.(0) then incr hits01;
    if List.mem 9 adj.(8) then incr hits89
  done;
  let p01 = float_of_int !hits01 /. float_of_int snaps in
  let p89 = float_of_int !hits89 /. float_of_int snaps in
  let exact = Node_meg.Model.p_nm sp in
  check_close_rel ~rel:0.15 "pair (0,1) matches exact P_NM" exact p01;
  check_close_rel ~rel:0.15 "pair (8,9) matches exact P_NM" exact p89

let test_theorem3_bound_positive () =
  let sp = space (uniform_cycle 8 0.25) (fun x y -> x = y) in
  let b = Node_meg.Model.theorem3_bound sp ~n:64 () in
  check_true "bound finite positive" (Float.is_finite b && b > 0.);
  let b2 = Node_meg.Model.theorem3_bound sp ~n:64 ~t_mix:10. () in
  check_true "explicit t_mix scales" (b2 > 0.)

(* --- One space shared by many models --- *)

let test_shared_space_same_seed () =
  (* Models share only read-only state: two models from one space at
     one seed walk in lockstep. *)
  let sp = space (uniform_cycle 7 0.3) (ring 7) in
  let a = Node_meg.Model.make ~n:30 sp and b = Node_meg.Model.make ~n:30 sp in
  Core.Dynamic.reset a (rng_of_seed 4);
  Core.Dynamic.reset b (rng_of_seed 4);
  for k = 1 to 25 do
    Core.Dynamic.step a;
    Core.Dynamic.step b;
    check_true
      (Printf.sprintf "snapshot %d identical" k)
      (Core.Dynamic.snapshot_edges a = Core.Dynamic.snapshot_edges b)
  done

let test_shared_space_across_domains () =
  (* Trials on different pool domains all read the same space; the
     summary must not depend on the scheduler. *)
  let sp = space (uniform_cycle 8 0.2) (ring 8) in
  let summary sched =
    let s =
      Core.Flooding.mean_time ~sched ~rng:(rng_of_seed 5) ~trials:8 (fun () ->
          Node_meg.Model.make ~n:48 sp)
    in
    (Stats.Summary.mean s, Stats.Summary.stddev s, Stats.Summary.max s)
  in
  let seq = summary Exec.sequential in
  Alcotest.(check (triple (float 0.) (float 0.) (float 0.)))
    "pool 2 = sequential" seq
    (summary (Exec.pool 2))

let test_exact_matches_brute_force () =
  (* P_NM, P_NM2 and eta read off the tabulated space equal the defining
     sums evaluated directly on the connection closure. *)
  let chain =
    Markov.Chain.of_rows
      (Array.init 5 (fun s -> [| (s, 0.5); ((s + 1) mod 5, 0.3); ((s * 2) mod 5, 0.2) |]))
  in
  let connect x y = (x + y) mod 3 <> 1 in
  let sp = space chain connect in
  let pi = Markov.Chain.stationary chain in
  let p = ref 0. and p2 = ref 0. in
  Array.iteri
    (fun x px ->
      let q = ref 0. in
      Array.iteri (fun y py -> if connect x y then q := !q +. py) pi;
      p := !p +. (px *. !q);
      p2 := !p2 +. (px *. !q *. !q))
    pi;
  check_close ~eps:1e-12 "P_NM" !p (Node_meg.Model.p_nm sp);
  check_close ~eps:1e-12 "P_NM2" !p2 (Node_meg.Model.p_nm2 sp);
  check_close ~eps:1e-12 "eta" (!p2 /. (!p *. !p)) (Node_meg.Model.eta sp)

let suites =
  [
    ( "node_meg",
      [
        Alcotest.test_case "symmetry enforced" `Quick test_symmetry_enforced;
        Alcotest.test_case "q_of_state complete" `Quick test_q_of_state_complete;
        Alcotest.test_case "P_NM same-state" `Quick test_p_nm_same_state;
        Alcotest.test_case "eta skewed chain" `Quick test_eta_skewed;
        Alcotest.test_case "eta validation" `Quick test_eta_zero_p_rejected;
        Alcotest.test_case "states in range" `Quick test_states_in_range;
        Alcotest.test_case "All_in init" `Quick test_all_in_init;
        Alcotest.test_case "exchangeability (Fact 2)" `Quick test_exchangeability;
        Alcotest.test_case "theorem 3 bound" `Quick test_theorem3_bound_positive;
        q_iter_edges_matches_bruteforce;
        Alcotest.test_case "All_in out of range rejected" `Quick
          test_all_in_out_of_range_rejected;
        Alcotest.test_case "shared space, same seed" `Quick test_shared_space_same_seed;
        Alcotest.test_case "shared space across domains" `Quick test_shared_space_across_domains;
        Alcotest.test_case "exact = brute force" `Quick test_exact_matches_brute_force;
      ] );
  ]
