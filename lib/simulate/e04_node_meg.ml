let id = "E4"

let title = "node-MEG channel model: Theorem 3 with exact P_NM, eta"

let claim =
  "For the k-channel node-MEG, flooding time stays within the Theorem 3 \
   budget T_mix (1/(n P_NM) + eta)^2 log^3 n across densities, with P_NM \
   and eta computed exactly from the chain."

(* A node's state is a channel 0..k-1; each step it advances to the next
   channel, but with probability eps it jumps to a uniform channel.
   The stationary distribution is uniform; after one jump the state is
   exactly stationary, so t_mix(1/4) <= ln 4 / eps. *)
let channel_chain ~k ~eps =
  let jump = eps /. float_of_int k in
  Markov.Chain.of_rows
    (Array.init k (fun s ->
         Array.append
           [| ((s + 1) mod k, 1. -. eps) |]
           (Array.init k (fun t -> (t, jump)))))

let run ~sched ~rng ~scale =
  let n = Runner.pick scale 96 256 in
  let eps = 0.1 in
  let w = 1 in
  let ks = Runner.pick scale [ 8; 32 ] [ 8; 16; 32; 64; 128 ] in
  let trials = Runner.trials scale in
  let t_mix = log 4. /. eps in
  let table =
    Stats.Table.create ~title
      ~columns:
        [ "k"; "P_NM"; "n*P_NM"; "eta"; "flood mean"; "flood sd"; "Thm3 budget"; "meas/budget" ]
  in
  List.iter
    (fun k ->
      let chain = channel_chain ~k ~eps in
      let connect x y =
        let d = abs (x - y) in
        min d (k - d) <= w
      in
      let space = Node_meg.Model.space ~chain ~connect in
      let p_nm = Node_meg.Model.p_nm space in
      let eta = Node_meg.Model.eta space in
      let dyn () = Node_meg.Model.make ~n space in
      let stats = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials dyn in
      let budget = Theory.Bounds.theorem3 ~t_mix ~p_nm ~eta ~n in
      Stats.Table.add_row table
        [
          Int k;
          Runner.cell p_nm;
          Runner.cell (p_nm *. float_of_int n);
          Fixed (eta, 3);
          Runner.cell stats.mean;
          Runner.cell stats.stddev;
          Runner.cell budget;
          Runner.ratio_cell stats.mean budget;
        ])
    ks;
  [ table ]

let assess = function
  | [ table ] ->
      let floods = Array.to_list (Stats.Table.column_floats table "flood mean") in
      [
        Assess.column_range table ~column:"meas/budget"
          ~label:"measured within the Theorem 3 budget" ~lo:0. ~hi:1.;
        Assess.column_range table ~column:"eta" ~label:"eta exactly 1 for the channel model"
          ~lo:0.999 ~hi:1.001;
        Assess.ordered ~label:"flooding grows as density shrinks (k up)" (List.rev floods);
      ]
  | _ -> [ Assess.check ~label:"expected 1 table" false ]
