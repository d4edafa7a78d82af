module St = Graph.Storage

type variant = Push | Pull | Push_pull

type result = { time : int option; trajectory : int array; contacts : int }

let c_runs = Obs.Metrics.counter "gossip.runs"

let c_rounds = Obs.Metrics.counter "gossip.rounds"

let c_contacts = Obs.Metrics.counter "gossip.contacts"

let c_cap_hits = Obs.Metrics.counter "gossip.cap_hits"

(* Domain-local scratch in {!Graph.Storage}: the informed bitset, the
   round's freshly-informed list and the trajectory all live off the
   OCaml heap and are reused across runs that agree on [n] (same
   pattern as the flooding scratch; see flooding.ml). *)
type scratch = {
  mutable s_n : int;
  mutable informed : St.Bitset.t;
  fresh : St.I32.t;
  traj : St.I32.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { s_n = -1; informed = St.Bitset.create 0; fresh = St.I32.create 16; traj = St.I32.create 256 })

let run ?cap ~variant ~rng ~source g =
  let n = Dynamic.n g in
  if source < 0 || source >= n then invalid_arg "Gossip.run: source out of range";
  if n > St.max_nodes then invalid_arg "Gossip.run: n exceeds the int32 id range";
  let cap = match cap with Some c -> c | None -> Flooding.default_cap n in
  if cap < 0 then invalid_arg "Gossip.run: cap must be >= 0";
  Obs.Metrics.incr c_runs;
  Dynamic.reset g (Prng.Rng.split rng);
  let sc = Domain.DLS.get scratch_key in
  if sc.s_n <> n then begin
    sc.s_n <- n;
    sc.informed <- St.Bitset.create n
  end
  else St.Bitset.clear_all sc.informed;
  let informed = sc.informed in
  St.Bitset.unsafe_set informed source;
  let n_informed = ref 1 in
  let traj_len = ref 0 in
  let push_traj v =
    St.I32.ensure sc.traj (!traj_len + 1);
    St.I32.unsafe_set sc.traj !traj_len v;
    incr traj_len
  in
  push_traj 1;
  let contacts = ref 0 in
  let t = ref 0 in
  (* Neighbour picks read the maintained adjacency's rows directly: a
     pick is one bounds-free index into the arena
     ({!Graph.Mutable_adj.unsafe_nth}) instead of a
     List.nth walk, and delta-capable models keep the rows fresh in
     O(Δ) per round (others rebuild — still cheaper than the int-list
     adjacency the loop used to allocate every round). *)
  let sync = Adj_sync.create g in
  while !n_informed < n && !t < cap do
    Adj_sync.ensure sync;
    let adj = Adj_sync.adj sync in
    let fresh_len = ref 0 in
    let push_fresh v =
      St.I32.ensure sc.fresh (!fresh_len + 1);
      St.I32.unsafe_set sc.fresh !fresh_len v;
      incr fresh_len
    in
    for u = 0 to n - 1 do
      let d = Graph.Mutable_adj.degree adj u in
      if d > 0 then begin
        let pick () =
          incr contacts;
          Graph.Mutable_adj.unsafe_nth adj u (Prng.Rng.int rng d)
        in
        (match variant with
        | Push | Push_pull ->
            if St.Bitset.unsafe_get informed u then begin
              let v = pick () in
              if not (St.Bitset.unsafe_get informed v) then push_fresh v
            end
        | Pull -> ());
        match variant with
        | Pull | Push_pull ->
            if not (St.Bitset.unsafe_get informed u) then begin
              let v = pick () in
              if St.Bitset.unsafe_get informed v then push_fresh u
            end
        | Push -> ()
      end
    done;
    incr t;
    for i = 0 to !fresh_len - 1 do
      let v = St.I32.unsafe_get sc.fresh i in
      if not (St.Bitset.unsafe_get informed v) then begin
        St.Bitset.unsafe_set informed v;
        incr n_informed
      end
    done;
    push_traj !n_informed;
    Obs.Metrics.incr c_rounds;
    Dynamic.step g;
    Adj_sync.advance sync
  done;
  Obs.Metrics.add c_contacts !contacts;
  if !n_informed < n then Obs.Metrics.incr c_cap_hits;
  {
    time = (if !n_informed = n then Some !t else None);
    trajectory = Array.init !traj_len (fun i -> St.I32.get sc.traj i);
    contacts = !contacts;
  }

let mean_time ?cap ~variant ~rng ~trials ?(source = 0) g =
  if trials < 1 then invalid_arg "Gossip.mean_time: trials must be >= 1";
  let n = Dynamic.n g in
  let cap_value = match cap with Some c -> c | None -> Flooding.default_cap n in
  let summary = Stats.Summary.create () in
  for i = 0 to trials - 1 do
    let r = run ~cap:cap_value ~variant ~rng:(Prng.Rng.substream rng i) ~source g in
    let value = match r.time with Some t -> t | None -> cap_value in
    Stats.Summary.add summary (float_of_int value)
  done;
  summary
