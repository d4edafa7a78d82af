open Helpers

(* --- Space --- *)

let brute_force_pairs ~r xs ys =
  let n = Array.length xs in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Mobility.Space.dist2 xs.(i) ys.(i) xs.(j) ys.(j) <= r *. r then acc := (i, j) :: !acc
    done
  done;
  List.sort compare !acc

let q_close_pairs_bruteforce =
  qtest ~count:100 "iter_close_pairs = brute force"
    QCheck2.Gen.(triple seed_gen (int_range 1 40) (float_range 0. 3.))
    (fun (seed, n, r) ->
      let rng = Prng.Rng.of_seed seed in
      let l = 10. in
      let xs = Array.init n (fun _ -> Prng.Rng.float rng l) in
      let ys = Array.init n (fun _ -> Prng.Rng.float rng l) in
      let found = ref [] in
      Mobility.Space.iter_close_pairs ~l ~r ~xs ~ys (fun i j -> found := (i, j) :: !found);
      List.sort compare !found = brute_force_pairs ~r xs ys)

let test_close_pairs_r0 () =
  let xs = [| 1.; 1.; 2. |] and ys = [| 3.; 3.; 3. |] in
  let found = ref [] in
  Mobility.Space.iter_close_pairs ~l:5. ~r:0. ~xs ~ys (fun i j -> found := (i, j) :: !found);
  Alcotest.(check (list (pair int int))) "coincident points only" [ (0, 1) ] !found

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_close_pairs_nan_radius () =
  let xs = [| 1.; 2. |] and ys = [| 1.; 2. |] in
  check_true "iter_close_pairs rejects r = nan"
    (raises (fun () -> Mobility.Space.iter_close_pairs ~l:5. ~r:Float.nan ~xs ~ys (fun _ _ -> ())));
  check_true "iter_boundary rejects r = nan"
    (raises (fun () ->
         ignore
           (Mobility.Space.iter_boundary ~l:5. ~r:Float.nan ~xs ~ys
              ~inside:(Graph.Storage.Bitset.create 2) ignore)));
  check_true "iter_boundary rejects a short inside set"
    (raises (fun () ->
         ignore
           (Mobility.Space.iter_boundary ~l:5. ~r:1. ~xs ~ys ~inside:(Graph.Storage.Bitset.create 1)
              ignore)))

(* Points that stress the grid's edges: some on x = l or y = l (the
   clamped last column or row of cells), some exactly on top of an
   earlier point. *)
let stress_points rng ~n ~l =
  let xs = Array.make n 0. and ys = Array.make n 0. in
  for i = 0 to n - 1 do
    match Prng.Rng.int rng 5 with
    | 0 ->
        xs.(i) <- l;
        ys.(i) <- Prng.Rng.float rng l
    | 1 ->
        xs.(i) <- Prng.Rng.float rng l;
        ys.(i) <- l
    | 2 when i > 0 ->
        let j = Prng.Rng.int rng i in
        xs.(i) <- xs.(j);
        ys.(i) <- ys.(j)
    | _ ->
        xs.(i) <- Prng.Rng.float rng l;
        ys.(i) <- Prng.Rng.float rng l
  done;
  (xs, ys)

let brute_force_boundary ~r xs ys member =
  let n = Array.length xs in
  List.filter
    (fun v ->
      (not member.(v))
      && List.exists
           (fun u -> member.(u) && Mobility.Space.dist2 xs.(u) ys.(u) xs.(v) ys.(v) <= r *. r)
           (List.init n Fun.id))
    (List.init n Fun.id)

(* Every radius regime (r = 0, sub-cell, the usual 1.5, one cell
   covering the square) and every kind of inside set, all through one
   scratch that a close-pairs sweep also uses in between, as Geo
   does. The boundary must also be exactly what that sweep's pairs
   reveal. *)
let q_boundary_bruteforce =
  qtest ~count:50 "iter_boundary = brute force"
    QCheck2.Gen.(pair seed_gen (int_range 0 60))
    (fun (seed, n) ->
      let rng = Prng.Rng.of_seed seed in
      let l = 10. in
      let xs, ys = stress_points rng ~n ~l in
      let sc = Mobility.Space.scratch () in
      List.iter
        (fun r ->
          let pairs = ref [] in
          Mobility.Space.iter_close_pairs ~scratch:sc ~l ~r ~xs ~ys (fun i j ->
              pairs := (i, j) :: !pairs);
          List.iter
            (fun (kind, pick) ->
              let member = Array.init n (fun _ -> pick ()) in
              let inside = Graph.Storage.Bitset.create n in
              Array.iteri (fun i b -> if b then Graph.Storage.Bitset.set inside i) member;
              let seen = Array.make n 0 and found = ref [] in
              let tested =
                Mobility.Space.iter_boundary ~scratch:sc ~l ~r ~xs ~ys ~inside (fun v ->
                    seen.(v) <- seen.(v) + 1;
                    found := v :: !found)
              in
              let ctx = Printf.sprintf "seed %d n %d r %g %s" seed n r kind in
              Array.iteri
                (fun v c -> if c > 1 then Alcotest.failf "%s: node %d reported %d times" ctx v c)
                seen;
              Alcotest.(check (list int))
                (ctx ^ ": boundary") (brute_force_boundary ~r xs ys member)
                (List.sort compare !found);
              let revealed = Array.make n false in
              List.iter
                (fun (i, j) ->
                  if member.(i) && not member.(j) then revealed.(j) <- true;
                  if member.(j) && not member.(i) then revealed.(i) <- true)
                !pairs;
              Alcotest.(check (list int))
                (ctx ^ ": close pairs reveal the same set")
                (List.filter (fun v -> revealed.(v)) (List.init n Fun.id))
                (List.sort compare !found);
              let n_in = Array.fold_left (fun a b -> if b then a + 1 else a) 0 member in
              if tested < List.length !found || tested > n_in * (n - n_in) then
                Alcotest.failf "%s: %d candidate pairs tested" ctx tested)
            [
              ("empty", fun () -> false);
              ("full", fun () -> true);
              ("random", fun () -> Prng.Rng.bool rng);
            ])
        [ 0.; 0.3; 1.5; l *. sqrt 2.; 3. *. l ];
      true)

let test_boundary_r0_coincident () =
  let xs = [| 1.; 1.; 2.; 1. |] and ys = [| 3.; 3.; 3.; 3. |] in
  let inside = Graph.Storage.Bitset.create 4 in
  Graph.Storage.Bitset.set inside 0;
  let found = ref [] in
  ignore
    (Mobility.Space.iter_boundary ~l:5. ~r:0. ~xs ~ys ~inside (fun v -> found := v :: !found));
  Alcotest.(check (list int)) "coincident points only" [ 1; 3 ] (List.sort compare !found)

let test_cell_index_bounds () =
  let l = 8. and bins = 4 in
  Alcotest.(check int) "origin" 0 (Mobility.Space.cell_index ~l ~bins 0. 0.);
  Alcotest.(check int) "far corner clamps" 15 (Mobility.Space.cell_index ~l ~bins 8. 8.);
  Alcotest.(check int) "interior" 5 (Mobility.Space.cell_index ~l ~bins 2.5 2.5)

let test_clamp () =
  check_close "below" 0. (Mobility.Space.clamp 5. (-1.));
  check_close "above" 5. (Mobility.Space.clamp 5. 7.);
  check_close "inside" 3. (Mobility.Space.clamp 5. 3.)

(* --- Waypoint --- *)

let q_waypoint_in_bounds =
  qtest ~count:30 "waypoint positions stay in the square"
    QCheck2.Gen.(pair seed_gen (int_range 1 10))
    (fun (seed, n) ->
      let l = 7. in
      let geo = Mobility.Waypoint.create ~n ~l ~r:1. ~v_min:0.5 ~v_max:2. () in
      Mobility.Geo.reset geo (Prng.Rng.of_seed seed);
      let ok = ref true in
      for _ = 1 to 60 do
        Mobility.Geo.step geo;
        for i = 0 to n - 1 do
          let x, y = Mobility.Geo.position geo i in
          if not (x >= 0. && x <= l && y >= 0. && y <= l) then ok := false
        done
      done;
      !ok)

let q_waypoint_speed_respected =
  qtest ~count:30 "waypoint step displacement <= v_max"
    QCheck2.Gen.(pair seed_gen (int_range 1 6))
    (fun (seed, n) ->
      let v_max = 1.5 in
      let geo = Mobility.Waypoint.create ~n ~l:9. ~r:1. ~v_min:0.5 ~v_max () in
      Mobility.Geo.reset geo (Prng.Rng.of_seed seed);
      let ok = ref true in
      let prev = Array.init n (Mobility.Geo.position geo) in
      for _ = 1 to 50 do
        Mobility.Geo.step geo;
        for i = 0 to n - 1 do
          let x, y = Mobility.Geo.position geo i in
          let px, py = prev.(i) in
          if Mobility.Space.dist2 x y px py > (v_max ** 2.) +. 1e-9 then ok := false;
          prev.(i) <- (x, y)
        done
      done;
      !ok)

let test_waypoint_corner_init () =
  let geo = Mobility.Waypoint.create ~init:Corner ~n:4 ~l:5. ~r:1. ~v_min:1. ~v_max:1. () in
  Mobility.Geo.reset geo (rng_of_seed 1);
  for i = 0 to 3 do
    let x, y = Mobility.Geo.position geo i in
    check_close "corner x" 0. x;
    check_close "corner y" 0. y
  done

let test_waypoint_moves () =
  let geo = Mobility.Waypoint.create ~n:3 ~l:10. ~r:1. ~v_min:1. ~v_max:1. () in
  Mobility.Geo.reset geo (rng_of_seed 2);
  let before = Mobility.Geo.positions geo in
  for _ = 1 to 5 do
    Mobility.Geo.step geo
  done;
  let after = Mobility.Geo.positions geo in
  check_true "nodes moved" (before <> after)

let test_waypoint_validation () =
  check_true "v_min > v_max rejected"
    (try
       ignore (Mobility.Waypoint.create ~n:2 ~l:5. ~r:1. ~v_min:2. ~v_max:1. ());
       false
     with Invalid_argument _ -> true)

let test_marginal_density_properties () =
  let l = 4. in
  check_close ~eps:1e-12 "zero at borders" 0. (Mobility.Waypoint.marginal_density ~l 0.);
  check_close ~eps:1e-12 "zero outside" 0. (Mobility.Waypoint.marginal_density ~l 5.);
  (* Max at center: 6*(L/2)^2/L^3 = 3/(2L). *)
  check_close ~eps:1e-12 "peak at center" (1.5 /. l)
    (Mobility.Waypoint.marginal_density ~l (l /. 2.));
  (* Numeric integral over [0, L] is 1. *)
  let steps = 10_000 in
  let dx = l /. float_of_int steps in
  let integral = ref 0. in
  for i = 0 to steps - 1 do
    integral :=
      !integral +. (Mobility.Waypoint.marginal_density ~l ((float_of_int i +. 0.5) *. dx) *. dx)
  done;
  check_close ~eps:1e-6 "integrates to 1" 1. !integral

let test_product_density_center_bias () =
  let l = 6. in
  check_true "center denser than quarter point"
    (Mobility.Waypoint.product_density ~l 3. 3.
    > Mobility.Waypoint.product_density ~l 1. 1.)

let numeric_integral ~l ~grid f =
  let cell = l /. float_of_int grid in
  let acc = ref 0. in
  for ix = 0 to grid - 1 do
    for iy = 0 to grid - 1 do
      let x = (float_of_int ix +. 0.5) *. cell in
      let y = (float_of_int iy +. 0.5) *. cell in
      acc := !acc +. (f x y *. cell *. cell)
    done
  done;
  !acc

let test_exact_density_normalised () =
  let l = 7. in
  check_close ~eps:0.02 "square integrates to 1" 1.
    (numeric_integral ~l ~grid:64 (Mobility.Waypoint.exact_density ~l));
  check_close ~eps:0.02 "disk integrates to 1" 1.
    (numeric_integral ~l ~grid:64
       (Mobility.Waypoint.exact_density ~region:Mobility.Waypoint.Disk ~l))

let test_exact_density_support () =
  let l = 7. in
  check_close "zero outside the square" 0. (Mobility.Waypoint.exact_density ~l 8. 3.);
  check_close "zero at the corner" 0. (Mobility.Waypoint.exact_density ~l 0. 0.);
  check_close "zero outside the disk" 0.
    (Mobility.Waypoint.exact_density ~region:Mobility.Waypoint.Disk ~l 0.5 0.5);
  check_true "positive at the center" (Mobility.Waypoint.exact_density ~l 3.5 3.5 > 0.)

let test_exact_density_symmetry () =
  let l = 8. in
  let f = Mobility.Waypoint.exact_density ~l in
  check_close_rel ~rel:1e-6 "square mirror symmetry" (f 2. 3.) (f 6. 3.);
  check_close_rel ~rel:1e-6 "square transpose symmetry" (f 2. 3.) (f 3. 2.);
  let g = Mobility.Waypoint.exact_density ~region:Mobility.Waypoint.Disk ~l in
  (* Points at equal radius from the disk center have equal density. *)
  let r = 1.5 in
  check_close_rel ~rel:1e-3 "disk radial symmetry"
    (g (4. +. r) 4.)
    (g (4. +. (r /. sqrt 2.)) (4. +. (r /. sqrt 2.)))

let test_exact_beats_product () =
  (* Against a long-run empirical profile, the exact Palm density must
     have smaller TV than the product approximation. *)
  let l = 10. and bins = 5 in
  let geo = Mobility.Waypoint.create ~n:80 ~l ~r:1. ~v_min:1. ~v_max:1.25 () in
  let measured = Mobility.Density.estimate ~geo ~rng:(rng_of_seed 31) ~bins ~samples:400 () in
  let exact = Mobility.Density.of_function ~l ~bins (Mobility.Waypoint.exact_density ~l) in
  let product = Mobility.Density.of_function ~l ~bins (Mobility.Waypoint.product_density ~l) in
  let tv_exact = Mobility.Density.tv_between exact measured in
  let tv_product = Mobility.Density.tv_between product measured in
  check_true
    (Printf.sprintf "exact (%.4f) < product (%.4f)" tv_exact tv_product)
    (tv_exact < tv_product)

let test_exact_density_validation () =
  check_true "too few angular steps rejected"
    (try
       ignore (Mobility.Waypoint.exact_density ~angular_steps:2 ~l:5. 1. 1.);
       false
     with Invalid_argument _ -> true)

let test_waypoint_steady_in_bounds () =
  let l = 9. in
  let geo = Mobility.Waypoint.create ~init:Steady ~n:50 ~l ~r:1. ~v_min:0.5 ~v_max:2. () in
  Mobility.Geo.reset geo (rng_of_seed 20);
  for i = 0 to 49 do
    let x, y = Mobility.Geo.position geo i in
    check_true "steady positions in square" (x >= 0. && x <= l && y >= 0. && y <= l)
  done

let test_waypoint_steady_matches_long_run () =
  (* Occupancy sampled right after a Steady reset (no burn-in, fresh
     reset each sample) should match the long-run occupancy of a
     burned-in Uniform-start run. *)
  let l = 10. and bins = 4 in
  let n = 80 in
  let steady = Mobility.Waypoint.create ~init:Steady ~n ~l ~r:1. ~v_min:1. ~v_max:2. () in
  let mass = Array.make (bins * bins) 0. in
  let rng = rng_of_seed 21 in
  for s = 0 to 199 do
    Mobility.Geo.reset steady (Prng.Rng.substream rng s);
    for i = 0 to n - 1 do
      let x, y = Mobility.Geo.position steady i in
      let c = Mobility.Space.cell_index ~l ~bins x y in
      mass.(c) <- mass.(c) +. 1.
    done
  done;
  let total = Array.fold_left ( +. ) 0. mass in
  let steady_occ = Array.map (fun m -> m /. total) mass in
  let long_run =
    let geo = Mobility.Waypoint.create ~n ~l ~r:1. ~v_min:1. ~v_max:2. () in
    (Mobility.Density.estimate ~geo ~rng:(rng_of_seed 22) ~bins ~samples:400 ()).occupancy
  in
  check_true "steady init matches long-run occupancy"
    (Stats.Distance.total_variation steady_occ long_run < 0.05)

let test_waypoint_steady_speed_bias () =
  (* Steady-state speeds have density ~ 1/v: mean ln-speed is the
     midpoint of [ln v_min, ln v_max]. *)
  (* A huge square makes mid-step arrivals (which displace less than
     one full speed) negligible, so displacements sample the speeds. *)
  let v_min = 1. and v_max = 4. in
  let geo =
    Mobility.Waypoint.create ~init:Steady ~n:4000 ~l:1000. ~r:1. ~v_min ~v_max ()
  in
  Mobility.Geo.reset geo (rng_of_seed 23);
  (* Advance one step and measure displacements = current speeds for
     nodes not arriving this step. *)
  let before = Mobility.Geo.positions geo in
  Mobility.Geo.step geo;
  let s = Stats.Summary.create () in
  Array.iteri
    (fun i (x, y) ->
      let px, py = before.(i) in
      let d = sqrt (Mobility.Space.dist2 x y px py) in
      if d > 0.99 *. v_min then Stats.Summary.add s (log d))
    (Mobility.Geo.positions geo);
  check_close ~eps:0.05 "mean log speed is log-midpoint"
    ((log v_min +. log v_max) /. 2.)
    (Stats.Summary.mean s)

let test_waypoint_pause_slows_nodes () =
  (* With a large pause, many nodes should be stationary on a given
     step; with pause = 0 (same seed), all nodes move every step. *)
  let count_movers pause =
    let geo = Mobility.Waypoint.create ~pause ~n:200 ~l:6. ~r:1. ~v_min:1. ~v_max:1. () in
    Mobility.Geo.reset geo (rng_of_seed 40);
    (* Let trips end so pauses engage. *)
    for _ = 1 to 30 do
      Mobility.Geo.step geo
    done;
    let before = Mobility.Geo.positions geo in
    Mobility.Geo.step geo;
    let moved = ref 0 in
    Array.iteri (fun i p -> if p <> before.(i) then incr moved) (Mobility.Geo.positions geo);
    !moved
  in
  Alcotest.(check int) "pause 0: everyone moves" 200 (count_movers 0);
  check_true "pause 20: many rest" (count_movers 20 < 150)

let test_waypoint_pause_validation () =
  check_true "negative pause rejected"
    (try
       ignore (Mobility.Waypoint.create ~pause:(-1) ~n:2 ~l:5. ~r:1. ~v_min:1. ~v_max:1. ());
       false
     with Invalid_argument _ -> true)

let test_geo_dynamic_connection_rule () =
  (* Two nodes in a tiny square with huge radius must be connected. *)
  let dyn = Mobility.Waypoint.dynamic ~n:2 ~l:2. ~r:5. ~v_min:0.1 ~v_max:0.1 () in
  Core.Dynamic.reset dyn (rng_of_seed 3);
  Alcotest.(check int) "connected" 1 (Core.Dynamic.edge_count dyn)

let test_geo_edges_cached_per_step () =
  let dyn = Mobility.Waypoint.dynamic ~n:20 ~l:5. ~r:1.5 ~v_min:1. ~v_max:1. () in
  Core.Dynamic.reset dyn (rng_of_seed 4);
  let a = Core.Dynamic.snapshot_edges dyn in
  let b = Core.Dynamic.snapshot_edges dyn in
  Alcotest.(check (list (pair int int))) "stable within a step" a b

(* --- Random walk model --- *)

let test_rw_positions_integral_and_adjacent () =
  let m = 6 in
  let geo = Mobility.Random_walk_model.create ~n:5 ~m ~r:1. () in
  Mobility.Geo.reset geo (rng_of_seed 5);
  let prev = Array.init 5 (Mobility.Random_walk_model.grid_point geo) in
  for _ = 1 to 40 do
    Mobility.Geo.step geo;
    for i = 0 to 4 do
      let x, y = Mobility.Random_walk_model.grid_point geo i in
      check_true "in grid" (x >= 0 && x < m && y >= 0 && y < m);
      let px, py = prev.(i) in
      Alcotest.(check int) "one hop" 1 (abs (x - px) + abs (y - py));
      prev.(i) <- (x, y)
    done
  done

let test_rw_hold () =
  let geo = Mobility.Random_walk_model.create ~hold:0.99 ~n:3 ~m:5 ~r:1. () in
  Mobility.Geo.reset geo (rng_of_seed 6);
  let before = Mobility.Geo.positions geo in
  Mobility.Geo.step geo;
  (* With hold = 0.99 most nodes should not move in one step. *)
  let moved = ref 0 in
  Array.iteri (fun i p -> if p <> before.(i) then incr moved) (Mobility.Geo.positions geo);
  check_true "mostly held" (!moved <= 1)

let test_rw_corner_init () =
  let geo = Mobility.Random_walk_model.create ~init:Corner ~n:3 ~m:5 ~r:1. () in
  Mobility.Geo.reset geo (rng_of_seed 7);
  Array.iter
    (fun (x, y) ->
      check_close "corner x" 0. x;
      check_close "corner y" 0. y)
    (Mobility.Geo.positions geo)

(* --- Manhattan --- *)

let q_manhattan_axis_aligned =
  qtest ~count:30 "manhattan moves are L1 and in bounds"
    QCheck2.Gen.(pair seed_gen (int_range 1 6))
    (fun (seed, n) ->
      let l = 8. and v = 1.2 in
      let geo = Mobility.Manhattan.create ~n ~l ~r:1. ~v_min:v ~v_max:v () in
      Mobility.Geo.reset geo (Prng.Rng.of_seed seed);
      let ok = ref true in
      let prev = Array.init n (Mobility.Geo.position geo) in
      for _ = 1 to 50 do
        Mobility.Geo.step geo;
        for i = 0 to n - 1 do
          let x, y = Mobility.Geo.position geo i in
          let px, py = prev.(i) in
          (* L1 displacement bounded by the speed budget. *)
          if abs_float (x -. px) +. abs_float (y -. py) > v +. 1e-9 then ok := false;
          if not (x >= 0. && x <= l && y >= 0. && y <= l) then ok := false;
          prev.(i) <- (x, y)
        done
      done;
      !ok)

(* --- Direction --- *)

let direction ~v ~turn_every () =
  ignore (Mobility.Direction.create ~n:3 ~l:10. ~r:1. ~v ~turn_every ())

(* An infinite speed used to hang the first step: [reflect] bounced
   between plus and minus infinity. *)
let test_direction_infinite_speed () =
  check_true "v = infinity rejected" (raises (direction ~v:Float.infinity ~turn_every:5.))

(* A huge finite speed hung the same way, as 2l - x rounds to -x, and
   any v > l could bounce more than once per step. *)
let test_direction_speed_above_side () =
  check_true "v = 1e300 rejected" (raises (direction ~v:1e300 ~turn_every:5.));
  check_true "v > l rejected" (raises (direction ~v:10.5 ~turn_every:5.));
  check_true "v = l accepted" (not (raises (direction ~v:10. ~turn_every:5.)))

let test_direction_nan_speed () =
  check_true "v = nan rejected" (raises (direction ~v:Float.nan ~turn_every:5.))

let test_direction_nan_turn_every () =
  check_true "turn_every = nan rejected" (raises (direction ~v:1. ~turn_every:Float.nan));
  check_true "turn_every < 1 rejected" (raises (direction ~v:1. ~turn_every:0.5))


let q_direction_in_bounds =
  qtest ~count:30 "random direction stays in bounds"
    QCheck2.Gen.(pair seed_gen (int_range 1 6))
    (fun (seed, n) ->
      let l = 8. in
      let geo = Mobility.Direction.create ~n ~l ~r:1. ~v:0.9 ~turn_every:5. () in
      Mobility.Geo.reset geo (Prng.Rng.of_seed seed);
      let ok = ref true in
      for _ = 1 to 100 do
        Mobility.Geo.step geo;
        for i = 0 to n - 1 do
          let x, y = Mobility.Geo.position geo i in
          if not (x >= 0. && x <= l && y >= 0. && y <= l) then ok := false
        done
      done;
      !ok)

let test_direction_displacement () =
  let v = 0.7 in
  let geo = Mobility.Direction.create ~n:4 ~l:20. ~r:1. ~v ~turn_every:6. () in
  Mobility.Geo.reset geo (rng_of_seed 8);
  let prev = ref (Mobility.Geo.positions geo) in
  for _ = 1 to 30 do
    Mobility.Geo.step geo;
    let now = Mobility.Geo.positions geo in
    Array.iteri
      (fun i (x, y) ->
        let px, py = !prev.(i) in
        check_true "displacement <= v"
          (Mobility.Space.dist2 x y px py <= (v *. v) +. 1e-9))
      now;
    prev := now
  done

(* --- Density --- *)

let test_density_of_function_uniform () =
  let p = Mobility.Density.of_function ~l:4. ~bins:8 (fun _ _ -> 1.) in
  let u = Mobility.Density.uniformity p in
  check_close ~eps:1e-9 "delta 1" 1. u.delta;
  check_close ~eps:1e-9 "lambda 1" 1. u.lambda;
  check_close ~eps:1e-9 "no bias" 1. u.center_to_corner;
  check_close ~eps:1e-9 "occupancy sums to 1" 1.
    (Array.fold_left ( +. ) 0. p.occupancy)

let test_density_estimate_waypoint () =
  let geo = Mobility.Waypoint.create ~n:60 ~l:8. ~r:1. ~v_min:1. ~v_max:1.25 () in
  let p =
    Mobility.Density.estimate ~geo ~rng:(rng_of_seed 9) ~bins:4 ~samples:300 ~gap:5 ()
  in
  check_close ~eps:1e-9 "occupancy normalised" 1. (Array.fold_left ( +. ) 0. p.occupancy);
  let u = Mobility.Density.uniformity p in
  check_true "center bias present" (u.center_to_corner > 1.5);
  check_true "delta moderate" (u.delta > 1. && u.delta < 4.)

let test_density_tv_between () =
  let a = Mobility.Density.of_function ~l:4. ~bins:4 (fun _ _ -> 1.) in
  let b = Mobility.Density.of_function ~l:4. ~bins:4 (Mobility.Waypoint.product_density ~l:4.) in
  let d = Mobility.Density.tv_between a b in
  check_true "tv in (0,1)" (d > 0. && d < 1.);
  check_close ~eps:1e-12 "tv self" 0. (Mobility.Density.tv_between a a)

let test_density_bins_mismatch () =
  let a = Mobility.Density.of_function ~l:4. ~bins:4 (fun _ _ -> 1.) in
  let b = Mobility.Density.of_function ~l:4. ~bins:8 (fun _ _ -> 1.) in
  check_true "bin mismatch raises"
    (try
       ignore (Mobility.Density.tv_between a b);
       false
     with Invalid_argument _ -> true)

(* --- Disk region --- *)

let q_disk_positions_inside =
  qtest ~count:20 "disk waypoint stays in the disk"
    QCheck2.Gen.(pair seed_gen (int_range 1 8))
    (fun (seed, n) ->
      let l = 10. in
      let geo =
        Mobility.Waypoint.create ~region:Mobility.Waypoint.Disk ~n ~l ~r:1. ~v_min:1.
          ~v_max:1.5 ()
      in
      Mobility.Geo.reset geo (Prng.Rng.of_seed seed);
      let ok = ref true in
      for _ = 1 to 60 do
        Mobility.Geo.step geo;
        for i = 0 to n - 1 do
          let x, y = Mobility.Geo.position geo i in
          (* Allow a whisker of floating-point slack on the boundary. *)
          if Mobility.Space.dist2 x y 5. 5. > 25. +. 1e-9 then ok := false
        done
      done;
      !ok)

let test_region_contains () =
  let l = 10. in
  check_true "centre in disk" (Mobility.Waypoint.region_contains Disk ~l 5. 5.);
  check_true "corner not in disk" (not (Mobility.Waypoint.region_contains Disk ~l 0.5 0.5));
  check_true "boundary point in disk" (Mobility.Waypoint.region_contains Disk ~l 0. 5.);
  check_true "corner in square" (Mobility.Waypoint.region_contains Square ~l 0. 0.);
  check_true "outside square" (not (Mobility.Waypoint.region_contains Square ~l 11. 5.))

let test_disk_corner_init () =
  let geo =
    Mobility.Waypoint.create ~init:Corner ~region:Mobility.Waypoint.Disk ~n:3 ~l:10. ~r:1.
      ~v_min:1. ~v_max:1. ()
  in
  Mobility.Geo.reset geo (rng_of_seed 30);
  Array.iter
    (fun (x, y) ->
      check_close "boundary x" 0. x;
      check_close "boundary y" 5. y)
    (Mobility.Geo.positions geo)

let test_uniformity_mask () =
  let l = 10. in
  let p = Mobility.Density.of_function ~l ~bins:10 (fun x y ->
      if Mobility.Waypoint.region_contains Disk ~l x y then 1. else 0.)
  in
  (* Unmasked, the zero cells outside the disk wreck lambda; masked,
     the profile is perfectly uniform on the disk. *)
  let unmasked = Mobility.Density.uniformity p in
  let masked =
    Mobility.Density.uniformity ~mask:(Mobility.Waypoint.region_contains Disk ~l) p
  in
  check_true "unmasked lambda depressed" (unmasked.lambda < 0.9);
  check_close ~eps:1e-9 "masked delta 1" 1. masked.delta;
  check_close ~eps:1e-9 "masked lambda 1" 1. masked.lambda

let test_uniformity_mask_rejects_all () =
  let p = Mobility.Density.of_function ~l:4. ~bins:4 (fun _ _ -> 1.) in
  check_true "empty mask raises"
    (try
       ignore (Mobility.Density.uniformity ~mask:(fun _ _ -> false) p);
       false
     with Invalid_argument _ -> true)

let test_density_render () =
  let p = Mobility.Density.of_function ~l:4. ~bins:4 (fun x _ -> x) in
  let s = Mobility.Density.render p in
  Alcotest.(check int) "4 lines of 5 chars" (4 * 5) (String.length s);
  (* Mass grows left to right: the right edge carries the darkest
     shade ('@'), the left edge something strictly lighter. *)
  check_true "dense right edge" (s.[3] = '@');
  check_true "left edge lighter" (s.[0] = '.' )

(* --- Discrete waypoint (exact node-MEG) --- *)

let test_dw_build_validation () =
  check_true "m too small rejected"
    (try
       ignore (Mobility.Discrete_waypoint.build ~m:1 ~r:1.);
       false
     with Invalid_argument _ -> true);
  check_true "m too large rejected"
    (try
       ignore (Mobility.Discrete_waypoint.build ~m:11 ~r:1.);
       false
     with Invalid_argument _ -> true);
  List.iter
    (fun r ->
      check_true
        (Printf.sprintf "radius %g rejected" r)
        (try
           ignore (Mobility.Discrete_waypoint.build ~m:3 ~r);
           false
         with Invalid_argument _ -> true))
    [ -1.; Float.nan ]

let test_dw_chain_stochastic () =
  let dw = Mobility.Discrete_waypoint.build ~m:4 ~r:1. in
  Alcotest.(check int) "m^4 states" 256 (Mobility.Discrete_waypoint.n_states dw);
  check_true "stochastic" (Markov.Chain.is_stochastic (Mobility.Discrete_waypoint.chain dw))

let test_dw_positional_distribution () =
  let dw = Mobility.Discrete_waypoint.build ~m:5 ~r:1. in
  let pos = Mobility.Discrete_waypoint.stationary_position_distribution dw in
  check_close ~eps:1e-8 "positional sums to 1" 1. (Array.fold_left ( +. ) 0. pos);
  (* Center bias and the grid's 4-fold symmetry. *)
  let at x y = pos.((x * 5) + y) in
  check_true "center heavier than corner" (at 2 2 > at 0 0);
  check_close ~eps:1e-6 "corner symmetry" (at 0 0) (at 4 4);
  check_close ~eps:1e-6 "corner symmetry 2" (at 0 4) (at 4 0);
  check_close ~eps:1e-6 "edge symmetry" (at 0 2) (at 2 0)

let test_dw_trajectory_is_straight () =
  (* From any non-arrived state the chain deterministically reduces the
     Chebyshev distance to the destination by exactly 1. *)
  let m = 5 in
  let dw = Mobility.Discrete_waypoint.build ~m ~r:1. in
  let chain = Mobility.Discrete_waypoint.chain dw in
  let points = m * m in
  for s = 0 to Mobility.Discrete_waypoint.n_states dw - 1 do
    let current = s / points and dest = s mod points in
    if current <> dest then begin
      let row = Markov.Chain.row chain s in
      Alcotest.(check int) "deterministic move" 1 (Array.length row);
      let s', _ = row.(0) in
      let cheb a b =
        let ax, ay = (a / m, a mod m) and bx, by = (b / m, b mod m) in
        max (abs (ax - bx)) (abs (ay - by))
      in
      Alcotest.(check int) "one king-step closer"
        (cheb current dest - 1)
        (cheb (s' / points) dest);
      Alcotest.(check int) "destination unchanged" dest (s' mod points)
    end
  done

let test_dw_eta_at_least_one () =
  (* eta = E[q^2]/E[q]^2 >= 1 by Cauchy-Schwarz; also small here. *)
  let dw = Mobility.Discrete_waypoint.build ~m:4 ~r:1.5 in
  let eta = Mobility.Discrete_waypoint.eta dw in
  check_true "eta >= 1" (eta >= 1. -. 1e-9);
  check_true "eta small" (eta < 3.);
  let p = Mobility.Discrete_waypoint.p_nm dw in
  check_true "P_NM is a probability" (p > 0. && p < 1.)

let test_dw_connect_symmetric () =
  (* Exhaustive over all state pairs: the tabulated connection map is
     symmetric and is exactly the geometric rule on current points. *)
  List.iter
    (fun (m, r) ->
      let dw = Mobility.Discrete_waypoint.build ~m ~r in
      let n = Mobility.Discrete_waypoint.n_states dw in
      let connect = Mobility.Discrete_waypoint.connect dw in
      for a = 0 to n - 1 do
        let xa, ya = Mobility.Discrete_waypoint.state_position dw a in
        for b = 0 to n - 1 do
          let xb, yb = Mobility.Discrete_waypoint.state_position dw b in
          let d2 = ((xa - xb) * (xa - xb)) + ((ya - yb) * (ya - yb)) in
          let c = connect a b in
          if c <> connect b a then Alcotest.failf "m=%d r=%g: (%d, %d) not symmetric" m r a b;
          if c <> (float_of_int d2 <= r *. r) then
            Alcotest.failf "m=%d r=%g: (%d, %d) disagrees with distance^2 %d" m r a b d2
        done
      done)
    [ (3, 1.); (3, 1.5); (4, 1.); (4, 1.5) ]

let test_dw_positional_matches_simulation () =
  (* The exact positional distribution must agree with a long empirical
     run of the same chain. *)
  let m = 4 in
  let dw = Mobility.Discrete_waypoint.build ~m ~r:1. in
  let chain = Mobility.Discrete_waypoint.chain dw in
  let exact = Mobility.Discrete_waypoint.stationary_position_distribution dw in
  let counts = Array.make (m * m) 0. in
  let rng = rng_of_seed 51 in
  let state = ref 0 in
  let steps = 200_000 in
  for _ = 1 to steps do
    state := Markov.Chain.step chain rng !state;
    let x, y = Mobility.Discrete_waypoint.state_position dw !state in
    counts.((x * m) + y) <- counts.((x * m) + y) +. 1.
  done;
  let empirical = Array.map (fun c -> c /. float_of_int steps) counts in
  check_true "TV(exact, empirical) small"
    (Stats.Distance.total_variation exact empirical < 0.02)

(* --- Mixing --- *)

let test_mixing_curve_decreases () =
  let make () =
    Mobility.Waypoint.create ~init:Corner ~n:1 ~l:6. ~r:1. ~v_min:1. ~v_max:1.25 ()
  in
  let curve =
    Mobility.Mixing.measure ~make ~rng:(rng_of_seed 10) ~bins:4 ~replicas:400
      ~checkpoints:[ 0; 3; 12; 30 ] ()
  in
  let tv0 = List.assoc 0 curve.checkpoints in
  let tv30 = List.assoc 30 curve.checkpoints in
  check_true "tv decreases from corner start" (tv30 < tv0);
  check_true "tv at 0 is large" (tv0 > 0.5);
  match curve.t_mix with
  | Some t -> check_true "mixing detected within window" (t <= 30)
  | None -> Alcotest.fail "expected mixing within 30 steps on a 6x6 square"

(* --- Geo chassis --- *)

let geo ~l ~r () =
  let xs = [| 0.; 1. |] and ys = [| 0.; 1. |] in
  ignore
    (Mobility.Geo.make ~n:2 ~l ~r ~xs ~ys ~reset_node:(fun _ _ -> ()) ~move_node:(fun _ _ -> ()))

let test_geo_nan_radius () =
  check_true "r = nan rejected" (raises (geo ~l:5. ~r:Float.nan));
  check_true "r < 0 rejected" (raises (geo ~l:5. ~r:(-1.)))

let test_geo_infinite_side () =
  check_true "l = infinity rejected" (raises (geo ~l:Float.infinity ~r:1.));
  check_true "l = nan rejected" (raises (geo ~l:Float.nan ~r:1.));
  check_true "l = 0 rejected" (raises (geo ~l:0. ~r:1.))

(* [make] seeds no per-node generators: [reset] does. A step before the
   first reset raises, and the reset model steps. *)
let test_geo_step_before_reset () =
  let w = Mobility.Waypoint.create ~n:5 ~l:4. ~r:1. ~v_min:1. ~v_max:1.25 () in
  check_true "step before reset raises" (raises (fun () -> Mobility.Geo.step w));
  Mobility.Geo.reset w (rng_of_seed 3);
  Mobility.Geo.step w;
  check_true "a dynamic view raises too"
    (raises (fun () ->
         Core.Dynamic.step
           (Mobility.Random_walk_model.dynamic ~n:4 ~m:3 ~r:1. ())))

(* --- Flooding through the boundary hook --- *)

let n_flood = 40

let boundary_models =
  let n = n_flood in
  let waypoint ?init ?region ?pause ?(l = 7.) ?(r = 1.2) () =
    Mobility.Waypoint.dynamic ?init ?region ?pause ~n ~l ~r ~v_min:0.5 ~v_max:1. ()
  in
  [
    ("waypoint uniform", fun () -> waypoint ());
    ("waypoint steady", fun () -> waypoint ~init:Steady ());
    ("waypoint corner, pause", fun () -> waypoint ~init:Corner ~pause:3 ~r:0.4 ());
    ("waypoint disk", fun () -> waypoint ~region:Disk ());
    ("waypoint r > l", fun () -> waypoint ~l:3. ~r:5. ());
    ("direction", fun () -> Mobility.Direction.dynamic ~n ~l:7. ~r:1.2 ~v:0.8 ~turn_every:5. ());
    ("manhattan", fun () -> Mobility.Manhattan.dynamic ~n ~l:7. ~r:1.2 ~v_min:0.5 ~v_max:1. ());
    ("grid random walk", fun () -> Mobility.Random_walk_model.dynamic ~n ~m:7 ~r:1. ());
    ("subsample every 3", fun () -> Core.Dynamic.subsample ~every:3 (waypoint ()));
  ]

let check_same_flood label (a : Core.Flooding.result) (b : Core.Flooding.result) =
  Alcotest.(check (option int)) (label ^ ": time") b.time a.time;
  Alcotest.(check (array int)) (label ^ ": trajectory") b.trajectory a.trajectory;
  Alcotest.(check (array int)) (label ^ ": arrivals") b.arrivals a.arrivals

(* Plain flooding through the native hook reaches the same sets at the
   same times as through the derived one, and reads one boundary per
   round. Push and Parsimonious ignore the hook, coins included. *)
let test_boundary_flood_equivalence (name, build) () =
  for seed = 0 to 59 do
    let source = seed mod n_flood in
    let label = Printf.sprintf "%s seed %d" name seed in
    (* Parsimonious floods can die out; the cap keeps those runs short. *)
    let run ?protocol g = Core.Flooding.run ~cap:300 ?protocol ~rng:(rng_of_seed seed) ~source g in
    let hooked, counters = with_counters (fun () -> run (build ())) in
    check_same_flood label hooked (run (without_boundary (build ())));
    Alcotest.(check int) (label ^ ": one boundary per round") (count "flood.rounds" counters)
      (count "flood.snapshots" counters);
    if seed < 5 then
      List.iter
        (fun protocol ->
          check_same_flood (label ^ " (coins)")
            (run ~protocol (build ()))
            (run ~protocol (without_boundary (build ()))))
        [ Core.Flooding.Push 0.5; Core.Flooding.Parsimonious 2 ]
  done

(* Every combinator answers the boundary query, equal to the brute
   force: [subsample] forwards the native hook, a re-wrap, [union],
   [filter_edges] and a hook-less static model derive theirs and count
   the edges they read. *)
let test_boundary_combinators () =
  let g () = Mobility.Waypoint.dynamic ~n:10 ~l:5. ~r:1. ~v_min:0.5 ~v_max:1. () in
  let module D = Core.Dynamic in
  let rng = rng_of_seed 6 in
  List.iter
    (fun (name, derived, g) ->
      D.reset g (rng_of_seed 7);
      for step = 0 to 5 do
        let ctx = Printf.sprintf "%s step %d" name step in
        let scanned = check_boundary ctx g (random_members rng (D.n g)) in
        if derived then Alcotest.(check int) (ctx ^ ": edges read") (D.edge_count g) scanned;
        D.step g
      done)
    [
      ("subsample every 1", false, D.subsample ~every:1 (g ()));
      ("subsample every 3", false, D.subsample ~every:3 (g ()));
      ("re-wrap", true, without_boundary (g ()));
      ("union", true, D.union (g ()) (g ()));
      ("filter_edges", true, D.filter_edges ~p_keep:0.5 (g ()));
      ("static", true, D.of_static (Graph.Builders.cycle 10));
    ]

let suites =
  [
    ( "mobility.space",
      [
        Alcotest.test_case "r=0 coincident" `Quick test_close_pairs_r0;
        Alcotest.test_case "cell index bounds" `Quick test_cell_index_bounds;
        Alcotest.test_case "clamp" `Quick test_clamp;
        Alcotest.test_case "nan radius rejected" `Quick test_close_pairs_nan_radius;
        Alcotest.test_case "boundary r=0 coincident" `Quick test_boundary_r0_coincident;
        q_close_pairs_bruteforce;
        q_boundary_bruteforce;
      ] );
    ( "mobility.geo",
      [
        Alcotest.test_case "nan radius rejected" `Quick test_geo_nan_radius;
        Alcotest.test_case "infinite side rejected" `Quick test_geo_infinite_side;
        Alcotest.test_case "step before reset raises" `Quick test_geo_step_before_reset;
      ] );
    ( "mobility.boundary_flood",
      Alcotest.test_case "combinators" `Quick test_boundary_combinators
      :: List.map
           (fun ((name, _) as model) ->
             Alcotest.test_case name `Quick (test_boundary_flood_equivalence model))
           boundary_models );
    ( "mobility.waypoint",
      [
        Alcotest.test_case "corner init" `Quick test_waypoint_corner_init;
        Alcotest.test_case "movement" `Quick test_waypoint_moves;
        Alcotest.test_case "validation" `Quick test_waypoint_validation;
        Alcotest.test_case "marginal density" `Quick test_marginal_density_properties;
        Alcotest.test_case "center bias" `Quick test_product_density_center_bias;
        Alcotest.test_case "exact density normalised" `Quick test_exact_density_normalised;
        Alcotest.test_case "exact density support" `Quick test_exact_density_support;
        Alcotest.test_case "exact density symmetry" `Quick test_exact_density_symmetry;
        Alcotest.test_case "exact beats product" `Quick test_exact_beats_product;
        Alcotest.test_case "exact density validation" `Quick test_exact_density_validation;
        Alcotest.test_case "connection rule" `Quick test_geo_dynamic_connection_rule;
        Alcotest.test_case "edge cache per step" `Quick test_geo_edges_cached_per_step;
        Alcotest.test_case "steady init in bounds" `Quick test_waypoint_steady_in_bounds;
        Alcotest.test_case "steady init matches long run" `Quick
          test_waypoint_steady_matches_long_run;
        Alcotest.test_case "steady init speed bias" `Quick test_waypoint_steady_speed_bias;
        Alcotest.test_case "pause slows nodes" `Quick test_waypoint_pause_slows_nodes;
        Alcotest.test_case "pause validation" `Quick test_waypoint_pause_validation;
        q_waypoint_in_bounds;
        q_waypoint_speed_respected;
      ] );
    ( "mobility.random_walk",
      [
        Alcotest.test_case "one-hop integral moves" `Quick test_rw_positions_integral_and_adjacent;
        Alcotest.test_case "hold probability" `Quick test_rw_hold;
        Alcotest.test_case "corner init" `Quick test_rw_corner_init;
      ] );
    ( "mobility.manhattan", [ q_manhattan_axis_aligned ] );
    ( "mobility.direction",
      [
        Alcotest.test_case "displacement bound" `Quick test_direction_displacement;
        Alcotest.test_case "infinite speed rejected" `Quick test_direction_infinite_speed;
        Alcotest.test_case "speed above side rejected" `Quick test_direction_speed_above_side;
        Alcotest.test_case "nan speed rejected" `Quick test_direction_nan_speed;
        Alcotest.test_case "nan turn_every rejected" `Quick test_direction_nan_turn_every;
        q_direction_in_bounds;
      ] );
    ( "mobility.density",
      [
        Alcotest.test_case "uniform function" `Quick test_density_of_function_uniform;
        Alcotest.test_case "waypoint estimate" `Quick test_density_estimate_waypoint;
        Alcotest.test_case "tv between" `Quick test_density_tv_between;
        Alcotest.test_case "bins mismatch" `Quick test_density_bins_mismatch;
        Alcotest.test_case "uniformity mask" `Quick test_uniformity_mask;
        Alcotest.test_case "mask rejects all" `Quick test_uniformity_mask_rejects_all;
        Alcotest.test_case "ascii render" `Quick test_density_render;
      ] );
    ( "mobility.disk",
      [
        Alcotest.test_case "region_contains" `Quick test_region_contains;
        Alcotest.test_case "disk corner init" `Quick test_disk_corner_init;
        q_disk_positions_inside;
      ] );
    ( "mobility.discrete_waypoint",
      [
        Alcotest.test_case "build validation" `Quick test_dw_build_validation;
        Alcotest.test_case "chain stochastic" `Quick test_dw_chain_stochastic;
        Alcotest.test_case "positional distribution" `Quick test_dw_positional_distribution;
        Alcotest.test_case "straight trajectories" `Quick test_dw_trajectory_is_straight;
        Alcotest.test_case "eta >= 1 and small" `Quick test_dw_eta_at_least_one;
        Alcotest.test_case "connect symmetric" `Quick test_dw_connect_symmetric;
        Alcotest.test_case "exact matches simulation" `Quick
          test_dw_positional_matches_simulation;
      ] );
    ( "mobility.mixing",
      [ Alcotest.test_case "curve decreases" `Quick test_mixing_curve_decreases ] );
  ]
