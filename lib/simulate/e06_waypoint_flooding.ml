let id = "E6"

let title = "random waypoint flooding: sqrt(n)/v scaling in the sparse regime"

let claim =
  "With L = sqrt(n), r and v constant, waypoint flooding grows as sqrt(n) up \
   to polylog (bound O((L/v)(L^2/(n r^2)+1)^2 log^3 n), lower bound \
   Omega(sqrt(n)/v)); at fixed n it scales as 1/v; Manhattan trajectories \
   behave alike."

let size_sweep ~sched ~rng ~scale =
  let ns = Runner.pick scale [ 64; 128 ] [ 64; 128; 256; 512 ] in
  let trials = Runner.trials scale in
  let r = 1.5 and v = 1.0 in
  let table =
    Stats.Table.create ~title:"E6a size sweep (L = sqrt n, r = 1.5, v = 1)"
      ~columns:
        [ "n"; "L"; "flood mean"; "flood sd"; "bound"; "meas/bound"; "lower"; "meas/lower" ]
  in
  let points = ref [] in
  List.iter
    (fun n ->
      let l = sqrt (float_of_int n) in
      let dyn () = Mobility.Waypoint.dynamic ~n ~l ~r ~v_min:v ~v_max:(1.25 *. v) () in
      let stats = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials dyn in
      let bound = Theory.Bounds.waypoint ~l ~v_max:(1.25 *. v) ~r ~n in
      let lower = Theory.Bounds.lower_bound_propagation ~l ~r ~v:(1.25 *. v) in
      points := (float_of_int n, stats.mean) :: !points;
      Stats.Table.add_row table
        [
          Int n;
          Runner.cell l;
          Runner.cell stats.mean;
          Runner.cell stats.stddev;
          Runner.cell bound;
          Runner.ratio_cell stats.mean bound;
          Runner.cell lower;
          Runner.ratio_cell stats.mean lower;
        ])
    ns;
  let fit = Stats.Regression.loglog !points in
  let verdict =
    Stats.Table.create ~title:"E6a scaling check"
      ~columns:[ "quantity"; "value"; "expectation" ]
  in
  Stats.Table.add_row verdict
    [
      Text "loglog slope of flood vs n";
      Fixed (fit.slope, 3);
      Text "~0.5 (sqrt n, plus polylog drift)";
    ];
  Stats.Table.add_row verdict [ Text "R^2"; Fixed (fit.r2, 3); Text "-" ];
  if fit.dropped > 0 then
    Stats.Table.add_row verdict
      [ Text "dropped points"; Int fit.dropped; Text "non-positive, excluded from fit" ];
  [ table; verdict ]

let speed_sweep ~sched ~rng ~scale =
  let n = Runner.pick scale 96 256 in
  let l = sqrt (float_of_int n) in
  let r = 1.5 in
  let vs = Runner.pick scale [ 0.5; 1.0; 2.0 ] [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let trials = Runner.trials scale in
  let table =
    Stats.Table.create
      ~title:(Printf.sprintf "E6b speed sweep (n = %d, L = %.1f)" n l)
      ~columns:[ "v"; "flood mean"; "flood * v"; "Manhattan mean"; "Manhattan * v" ]
  in
  List.iter
    (fun v ->
      let wp () = Mobility.Waypoint.dynamic ~n ~l ~r ~v_min:v ~v_max:(1.25 *. v) () in
      let mh () = Mobility.Manhattan.dynamic ~n ~l ~r ~v_min:v ~v_max:(1.25 *. v) () in
      let swp = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials wp in
      let smh = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials mh in
      Stats.Table.add_row table
        [
          Runner.cell v;
          Runner.cell swp.mean;
          Runner.cell (swp.mean *. v);
          Runner.cell smh.mean;
          Runner.cell (smh.mean *. v);
        ])
    vs;
  [ table ]

(* The speed sweep splits its generators off [rng] first: the seeded
   tables were recorded in that order. *)
let run ~sched ~rng ~scale =
  let speed = speed_sweep ~sched ~rng ~scale in
  let size = size_sweep ~sched ~rng ~scale in
  size @ speed

let assess = function
  | [ size; verdict; speed ] ->
      let slope =
        match Stats.Table.column_floats verdict "value" with [||] -> nan | v -> v.(0)
      in
      let wp_floods = Array.to_list (Stats.Table.column_floats speed "flood mean") in
      [
        Assess.value_in ~label:"flooding-vs-n exponent near 1/2" ~lo:0.3 ~hi:0.8 slope;
        Assess.column_range size ~column:"meas/lower"
          ~label:"within polylog of the trivial lower bound" ~lo:0.5 ~hi:20.;
        Assess.ordered ~label:"flooding decreases with speed" wp_floods;
      ]
  | _ -> [ Assess.check ~label:"expected 3 tables" false ]
