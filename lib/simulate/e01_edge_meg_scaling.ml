let id = "E1"

let title = "edge-MEG(p,q): flooding vs O(log n / log(1+np)) (Eq. 2)"

let claim =
  "Measured flooding time of the classic edge-MEG stays within a constant \
   factor of log n / log(1+np) across n, for p = c/n."

let run ~sched ~rng ~scale =
  let ns = Runner.pick scale [ 64; 128; 256 ] [ 64; 128; 256; 512; 1024 ] in
  let configs = [ (4.0, 0.5); (1.0, 0.5); (4.0, 0.1) ] in
  let trials = Runner.trials scale in
  let table =
    Stats.Table.create ~title
      ~columns:[ "n"; "c (np)"; "q"; "flood mean"; "flood sd"; "Eq.2 bound"; "ratio" ]
  in
  let points = ref [] in
  List.iter
    (fun (c, q) ->
      List.iter
        (fun n ->
          let p = c /. float_of_int n in
          let dyn () = Edge_meg.Classic.make ~n ~p ~q () in
          let stats = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials dyn in
          let bound = Theory.Bounds.edge_meg_eq2 ~n ~p in
          if c = 4.0 && q = 0.5 then points := (float_of_int n, stats.mean) :: !points;
          Stats.Table.add_row table
            [
              Int n;
              Runner.cell c;
              Runner.cell q;
              Runner.cell stats.mean;
              Runner.cell stats.stddev;
              Runner.cell bound;
              Runner.ratio_cell stats.mean bound;
            ])
        ns)
    configs;
  (* The bound predicts O(log n) growth at fixed c: the empirical
     scaling exponent of flooding vs n should be near zero. *)
  let fit = Stats.Regression.loglog !points in
  let verdict =
    Stats.Table.create ~title:"E1 scaling check (c=4, q=0.5)"
      ~columns:[ "quantity"; "value"; "expectation" ]
  in
  Stats.Table.add_row verdict
    [ Text "loglog slope of flood vs n"; Fixed (fit.slope, 3); Text "near 0 (polylog growth)" ];
  Stats.Table.add_row verdict [ Text "R^2"; Fixed (fit.r2, 3); Text "-" ];
  if fit.dropped > 0 then
    Stats.Table.add_row verdict
      [ Text "dropped points"; Int fit.dropped; Text "non-positive, excluded from fit" ];
  (* Calibration anchor: with q = 1 - p the snapshots are i.i.d.
     G(n, p) and the expected flooding time is computable exactly
     (absorbing-chain analysis); measured means must match to within
     sampling noise — this validates the whole simulation pipeline, not
     just a bound's shape. *)
  let anchor =
    Stats.Table.create ~title:"E1 exact anchor (iid snapshots: q = 1 - p)"
      ~columns:[ "n"; "alpha*n"; "measured mean"; "exact expectation"; "measured/exact" ]
  in
  List.iter
    (fun n ->
      let alpha = 3. /. float_of_int n in
      let dyn () = Edge_meg.Classic.make ~n ~p:alpha ~q:(1. -. alpha) () in
      let stats = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials:(trials * 4) dyn in
      let exact = Theory.Iid_flooding.expected_time ~n ~alpha in
      Stats.Table.add_row anchor
        [
          Int n;
          Runner.cell 3.;
          Runner.cell stats.mean;
          Runner.cell exact;
          Fixed (stats.mean /. exact, 3);
        ])
    ns;
  [ table; verdict; anchor ]

let assess = function
  | [ main; verdict; anchor ] ->
      let slope =
        match Stats.Table.column_floats verdict "value" with
        | [||] -> nan
        | values -> values.(0)
      in
      [
        Assess.column_range main ~column:"ratio"
          ~label:"measured/Eq.2 bounded across n, c, q" ~lo:0.05 ~hi:3.;
        Assess.value_in ~label:"flooding-vs-n exponent is polylog-small" ~lo:(-0.2) ~hi:0.5
          slope;
        Assess.column_range anchor ~column:"measured/exact"
          ~label:"iid anchor: simulation matches exact expectation" ~lo:0.85 ~hi:1.15;
      ]
  | _ -> [ Assess.check ~label:"expected 3 tables" false ]
