type scale = Quick | Full | Large

let trials = function Quick | Large -> 5 | Full -> 20

(* Large keeps the registry sweeps at their Quick size: the tier's
   budget belongs to the million-node off-heap extras the bench driver
   layers on top (see bench/main.ml), not to bigger paper sweeps. *)
let pick scale quick full = match scale with Quick | Large -> quick | Full -> full

(* Wire codec for a scale, used by the fleet payload (Registry). *)
let scale_to_int = function Quick -> 0 | Full -> 1 | Large -> 2

let scale_of_int = function
  | 0 -> Quick
  | 1 -> Full
  | 2 -> Large
  | n -> invalid_arg (Printf.sprintf "Runner.scale_of_int: %d" n)

type flood_stats = { mean : float; stddev : float; max : float; capped : bool }

let flood ?(sched = Exec.sequential) ~rng ~trials ?cap ?protocol ?source build =
  let n = Core.Dynamic.n (build ()) in
  let cap_value = match cap with Some c -> c | None -> Core.Flooding.default_cap n in
  let summary =
    Core.Flooding.mean_time ~cap:cap_value ?protocol ~sched ~rng ~trials ?source build
  in
  let max = Stats.Summary.max summary in
  {
    mean = Stats.Summary.mean summary;
    stddev = (if trials > 1 then Stats.Summary.stddev summary else 0.);
    max;
    capped = max >= float_of_int cap_value;
  }

let cell f = Stats.Table.Float f

let ratio_cell measured bound =
  if Float.is_finite bound && bound > 0. then Stats.Table.Fixed (measured /. bound, 3)
  else Stats.Table.Missing
