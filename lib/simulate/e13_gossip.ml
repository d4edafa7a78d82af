let id = "E13"

let title = "gossip variants (push / pull / push-pull) vs flooding"

let claim =
  "Single-contact gossip protocols on dynamic graphs behave as flooding on a \
   sparser virtual process: push-pull finishes within a small factor of full \
   flooding at a fraction of the message cost."

let gossip_stats ~sched ~rng ~trials ~variant make =
  let n = Core.Dynamic.n (make ()) in
  let cap = Core.Flooding.default_cap n in
  let times = Stats.Summary.create () in
  let msgs = Stats.Summary.create () in
  let trial_rngs = Array.init trials (Prng.Rng.substream rng) in
  let results =
    Exec.map sched ~jobs:trials (fun i ->
        Core.Gossip.run ~cap ~variant ~rng:trial_rngs.(i) ~source:0 (make ()))
  in
  Array.iter
    (fun (r : Core.Gossip.result) ->
      Stats.Summary.add times (float_of_int (match r.time with Some t -> t | None -> cap));
      Stats.Summary.add msgs (float_of_int r.contacts))
    results;
  (times, msgs)

let flood_messages ~rng dyn =
  (* Flooding's message cost per completed run: 2 messages per edge per
     step (both endpoints transmit). *)
  Core.Dynamic.reset dyn (Prng.Rng.split rng);
  let r = Core.Flooding.run ~rng ~source:0 dyn in
  match r.time with
  | None -> nan
  | Some t ->
      Core.Dynamic.reset dyn (Prng.Rng.split rng);
      let total = ref 0 in
      for _ = 1 to t do
        total := !total + (2 * Core.Dynamic.edge_count dyn);
        Core.Dynamic.step dyn
      done;
      float_of_int !total

let run ~sched ~rng ~scale =
  let trials = Runner.trials scale in
  let n_meg = Runner.pick scale 128 512 in
  let n_wp = Runner.pick scale 64 192 in
  let specs =
    [
      ( Printf.sprintf "edge-MEG n=%d c=8" n_meg,
        fun () -> Edge_meg.Classic.make ~n:n_meg ~p:(8. /. float_of_int n_meg) ~q:0.5 () );
      ( Printf.sprintf "waypoint n=%d" n_wp,
        fun () ->
          Mobility.Waypoint.dynamic ~n:n_wp
            ~l:(sqrt (float_of_int n_wp))
            ~r:1.5 ~v_min:1. ~v_max:1.25 () );
    ]
  in
  List.map
    (fun (name, make) ->
      let table =
        Stats.Table.create
          ~title:(Printf.sprintf "E13 %s" name)
          ~columns:[ "protocol"; "rounds mean"; "rounds sd"; "messages mean" ]
      in
      let flood = Runner.flood ~sched ~rng:(Prng.Rng.split rng) ~trials make in
      let flood_msg = flood_messages ~rng:(Prng.Rng.split rng) (make ()) in
      Stats.Table.add_row table
        [ Text "flooding"; Runner.cell flood.mean; Runner.cell flood.stddev;
          Runner.cell flood_msg ];
      List.iter
        (fun (pname, variant) ->
          let times, msgs =
            gossip_stats ~sched ~rng:(Prng.Rng.split rng) ~trials ~variant make
          in
          Stats.Table.add_row table
            [
              Text pname;
              Runner.cell (Stats.Summary.mean times);
              Runner.cell (Stats.Summary.stddev times);
              Runner.cell (Stats.Summary.mean msgs);
            ])
        [
          ("push", Core.Gossip.Push);
          ("pull", Core.Gossip.Pull);
          ("push-pull", Core.Gossip.Push_pull);
        ];
      table)
    specs

let assess tables =
  match tables with
  | [ _; _ ] ->
      List.concat_map
        (fun table ->
          let rounds = Stats.Table.column_floats table "rounds mean" in
          let messages = Stats.Table.column_floats table "messages mean" in
          let name = Stats.Table.title table in
          if Array.length rounds < 4 || Array.length messages < 4 then
            [ Assess.check ~label:(name ^ ": expected 4 rows") false ]
          else
            [
              (* rows: flooding, push, pull, push-pull *)
              Assess.check
                ~label:(name ^ ": push-pull within 5x of flooding rounds")
                (rounds.(3) <= 5. *. Float.max rounds.(0) 1.);
              Assess.check
                ~label:(name ^ ": gossip uses fewer messages than flooding")
                (messages.(1) < messages.(0) && messages.(3) < messages.(0));
              Assess.check
                ~label:(name ^ ": push-pull no slower than push")
                (rounds.(3) <= rounds.(1) +. 1.);
            ])
        tables
  | _ -> [ Assess.check ~label:"expected 2 tables" false ]
