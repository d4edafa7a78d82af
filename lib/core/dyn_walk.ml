let default_cap n = 10_000 + (500 * n)

let c_runs = Obs.Metrics.counter "walk.runs"

let c_steps = Obs.Metrics.counter "walk.steps"

let c_cap_hits = Obs.Metrics.counter "walk.cap_hits"

let step_walk ~hold rng adj u =
  if hold > 0. && Prng.Rng.bernoulli rng hold then u
  else
    let d = Graph.Mutable_adj.degree adj u in
    if d = 0 then u else Graph.Mutable_adj.neighbor adj u (Prng.Rng.int rng d)

let walk_until ?cap ?(hold = 0.5) ~rng ~start ~stop g =
  let n = Dynamic.n g in
  if start < 0 || start >= n then invalid_arg "Dyn_walk: start out of range";
  if not (hold >= 0. && hold < 1.) then invalid_arg "Dyn_walk: hold outside [0, 1)";
  let cap = match cap with Some c -> c | None -> default_cap n in
  if cap < 0 then invalid_arg "Dyn_walk: cap must be >= 0";
  Obs.Metrics.incr c_runs;
  Dynamic.reset g (Prng.Rng.split rng);
  let position = ref start in
  let t = ref 0 in
  let finished = ref (stop ~position:!position ~time:0) in
  (* The walk only ever reads one node's row per step, but keeping the
     whole adjacency in delta-sync is still O(Δ) per step — against the
     O(n + m) list-array the loop used to build each step. *)
  let sync = Adj_sync.create g in
  while (not !finished) && !t < cap do
    Adj_sync.ensure sync;
    position := step_walk ~hold rng (Adj_sync.adj sync) !position;
    Dynamic.step g;
    Adj_sync.advance sync;
    incr t;
    finished := stop ~position:!position ~time:!t
  done;
  Obs.Metrics.add c_steps !t;
  if not !finished then Obs.Metrics.incr c_cap_hits;
  if !finished then Some !t else None

let hitting_time ?cap ?hold ~rng ~start ~target g =
  let n = Dynamic.n g in
  if target < 0 || target >= n then invalid_arg "Dyn_walk.hitting_time: target out of range";
  walk_until ?cap ?hold ~rng ~start ~stop:(fun ~position ~time:_ -> position = target) g

let cover_time ?cap ?hold ~rng ~start g =
  let n = Dynamic.n g in
  (* Packed off-heap bitset: n/8 bytes the GC never scans, instead of
     an n-word boolean array. *)
  let visited = Graph.Storage.Bitset.create n in
  let n_visited = ref 0 in
  let note u =
    if not (Graph.Storage.Bitset.unsafe_get visited u) then begin
      Graph.Storage.Bitset.unsafe_set visited u;
      incr n_visited
    end
  in
  walk_until ?cap ?hold ~rng ~start
    ~stop:(fun ~position ~time:_ ->
      note position;
      !n_visited = n)
    g

let averaged ?cap ?hold ?(sched = Exec.sequential) ~rng ~trials build one =
  if trials < 1 then invalid_arg "Dyn_walk: trials must be >= 1";
  let rngs = Array.init trials (Prng.Rng.substream rng) in
  let job i =
    let g = build () in
    let cap_value = match cap with Some c -> c | None -> default_cap (Dynamic.n g) in
    match one ~cap:cap_value ?hold ~rng:rngs.(i) g with
    | Some t -> float_of_int t
    | None -> float_of_int cap_value
  in
  let reduce times = Array.fold_left ( +. ) 0. times /. float_of_int trials in
  Exec.run sched (Exec.plan ~jobs:trials ~job ~reduce)

let mean_hitting_time ?cap ?hold ?sched ~rng ~trials build =
  averaged ?cap ?hold ?sched ~rng ~trials build (fun ~cap ?hold ~rng g ->
      let n = Dynamic.n g in
      let start = Prng.Rng.int rng n and target = Prng.Rng.int rng n in
      hitting_time ~cap ?hold ~rng ~start ~target g)

let mean_cover_time ?cap ?hold ?sched ~rng ~trials build =
  averaged ?cap ?hold ?sched ~rng ~trials build (fun ~cap ?hold ~rng g ->
      cover_time ~cap ?hold ~rng ~start:(Prng.Rng.int rng (Dynamic.n g)) g)
