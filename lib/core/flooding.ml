module St = Graph.Storage

type protocol = Flood | Push of float | Parsimonious of int

type result = { time : int option; trajectory : int array; arrivals : int array }

let default_cap n = 10_000 + (200 * n)

(* Observability. Counters total deterministic work items (rounds,
   snapshots, scanned edges), so their values are scheduler- and
   worker-count-independent; trace events are coarse (run boundaries,
   quarter milestones, cap hits — never per edge). Disabled, each hook
   is one atomic load. [flood.edges] counts edge slots the kernel
   actually scanned: full snapshot lengths on the enumeration path,
   Σ deg(active) on the frontier path, the candidate pairs the model
   tested on the boundary path — so the counter itself shows the
   frontier and boundary kernels touching less of the graph.
   [flood.delta_edges] totals the births + deaths applied incrementally
   instead of being re-enumerated. *)
let c_runs = Obs.Metrics.counter "flood.runs"

let c_rounds = Obs.Metrics.counter "flood.rounds"

let c_snapshots = Obs.Metrics.counter "flood.snapshots"

let c_edges = Obs.Metrics.counter "flood.edges"

let c_delta_edges = Obs.Metrics.counter "flood.delta_edges"

let c_cap_hits = Obs.Metrics.counter "flood.cap_hits"

(* The kernel allocates its working set once per domain, not per run:
   the informed/queued bitsets, the arrival-order and frontier arrays,
   the trajectory buffer and the row path's {!Adj_sync} all live in a
   domain-local scratch, re-initialised (O(n)) and reused whenever
   consecutive runs agree on [n] — which is every iteration of a trial
   loop. The whole scratch lives in the {!Graph.Storage} layer —
   packed bitsets and int32 Bigarray vectors — so its major-heap
   footprint is a handful of control records, independent of [n].
   Domain-local state never crosses workers, so parallel determinism is
   untouched; the adjacency view is re-keyed by physical model identity
   and invalidated per run, so only its grown row storage survives,
   never stale topology.

   Three scan strategies, chosen once per run from the protocol and the
   model's capabilities:

   - Plain flooding asks the model for N_t(I_t) \ I_t through
     {!Dynamic.boundary}, then commits and steps: no adjacency, no
     per-edge work here. Every model answers. The grid mobility models
     and the classic edge-MEG have native hooks (a
     counting-sort sweep that skips cells far from every informed node;
     one pass over the live edges); every other model answers through
     the hook {!Dynamic.make} derives from one [iter_edges] pass.
     Flooding draws no coins and I_{t+1} is a set, so the result is the
     one enumeration would give. [flood.edges] counts the candidate
     pairs the hook tested, and every round is one [flood.snapshots].

   - Push and Parsimonious on delta-capable models ({!Dynamic.has_deltas})
     keep an incremental adjacency in sync through {!Adj_sync} (which
     itself chooses between O(Δ) patching and an O(n + m) rebuild per
     round — see its docs) and scan the senders' rows in arrival order,
     drawing a Push coin per uninformed neighbour: arrival-then-row
     order is the coin sequence the goldens pin. Every informed node
     sends, except under Parsimonious: arrival times are nondecreasing
     along [order], so the window's expired nodes form a prefix and one
     monotone pointer maintains the active suffix.

   - Push and Parsimonious on every other model read each snapshot
     through one {!Dynamic.iter_edges} call whose callback considers
     both directions of every edge, in enumeration order (same sets,
     same coin order as the original kernel). Parsimonious's senders
     are a window of the informed set, not the set a boundary query
     takes.

   The row and enumeration paths reach the same informed sets at the
   same times; they differ only in the order protocol coins are drawn
   (frontier scans by arriving sender, enumeration by edge), which is
   why Push goldens on delta-capable models were regenerated when the
   frontier path landed — see DESIGN.md section 8. *)
type scratch = {
  mutable s_n : int;  (* node count the arrays are sized for; -1 initially *)
  mutable informed : St.Bitset.t;
  mutable queued : St.Bitset.t;
  mutable informed_at : St.I32.t;  (* -1 while uninformed *)
  mutable order : St.I32.t;
  mutable frontier : St.I32.t;
  traj : St.I32.t;             (* grows via the explicit ensure contract *)
  mutable sync_for : Dynamic.t option;  (* physical key for [sync] *)
  mutable sync : Adj_sync.t option;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        s_n = -1;
        informed = St.Bitset.create 0;
        queued = St.Bitset.create 0;
        informed_at = St.I32.create 1;
        order = St.I32.create 1;
        frontier = St.I32.create 1;
        traj = St.I32.create 256;
        sync_for = None;
        sync = None;
      })

(* The row path reads the adjacency view with the Bigarray primitive
   itself: under -opaque a Storage accessor from this module would be a
   function call per row entry (see Graph.Storage). *)
let[@inline] get (a : St.I32.raw) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* The full execution, leaving its results in the domain-local scratch:
   [run] materialises trajectory and arrivals from it, while [time]
   reads only the completion step — so a trial loop at n = 10⁶ never
   allocates the two O(n) result arrays it would throw away. *)
let run_raw ?cap ?(protocol = Flood) ~rng ~source g =
  let n = Dynamic.n g in
  if source < 0 || source >= n then invalid_arg "Flooding.run: source out of range";
  if n > St.max_nodes then invalid_arg "Flooding.run: n exceeds the int32 id range";
  (match protocol with
  | Push p when not (p > 0. && p <= 1.) ->
      invalid_arg "Flooding.run: push probability outside (0, 1]"
  | Parsimonious k when k < 1 -> invalid_arg "Flooding.run: parsimonious window must be >= 1"
  | Flood | Push _ | Parsimonious _ -> ());
  let cap = match cap with Some c -> c | None -> default_cap n in
  if cap < 0 then invalid_arg "Flooding.run: cap must be >= 0";
  Obs.Metrics.incr c_runs;
  let tracing = Obs.Trace.enabled () in
  if tracing then Obs.Trace.emit "flood.start" [ ("n", Int n); ("source", Int source) ];
  (* Quarter milestones |I_t| >= ceil(k n / 4): thresholds the initial
     informed set already meets (tiny n) are skipped silently. *)
  let milestones = [| ((n + 3) / 4, 1); ((n + 1) / 2, 2); (((3 * n) + 3) / 4, 3); (n, 4) |] in
  let next_milestone = ref 0 in
  while !next_milestone < 4 && fst milestones.(!next_milestone) <= 1 do
    incr next_milestone
  done;
  Dynamic.reset g (Prng.Rng.split rng);
  let sc = Domain.DLS.get scratch_key in
  if sc.s_n <> n then begin
    sc.s_n <- n;
    sc.informed <- St.Bitset.create n;
    sc.queued <- St.Bitset.create n;
    sc.informed_at <- St.I32.create n;
    sc.order <- St.I32.create n;
    sc.frontier <- St.I32.create n
  end
  else begin
    St.Bitset.clear_all sc.informed;
    St.Bitset.clear_all sc.queued
  end;
  St.I32.fill sc.informed_at 0 n (-1);
  let informed = sc.informed in
  let queued = sc.queued in
  let informed_at = sc.informed_at in
  St.Bitset.unsafe_set informed source;
  St.I32.unsafe_set informed_at source 0;
  let n_informed = ref 1 in
  (* Informed nodes in arrival order; length is [n_informed]. *)
  let order = sc.order in
  St.I32.unsafe_set order 0 source;
  let traj_len = ref 0 in
  let push_traj v =
    St.I32.ensure sc.traj (!traj_len + 1);
    St.I32.unsafe_set sc.traj !traj_len v;
    incr traj_len
  in
  push_traj 1;
  let frontier = sc.frontier in
  let frontier_len = ref 0 in
  let t = ref 0 in
  let active u =
    match protocol with
    | Flood | Push _ -> St.Bitset.unsafe_get informed u
    | Parsimonious k ->
        St.Bitset.unsafe_get informed u && !t - St.I32.unsafe_get informed_at u < k
  in
  let transmits () =
    match protocol with Push p -> Prng.Rng.bernoulli rng p | Flood | Parsimonious _ -> true
  in
  let enqueue v =
    if not (St.Bitset.unsafe_get queued v) then begin
      St.Bitset.unsafe_set queued v;
      St.I32.unsafe_set frontier !frontier_len v;
      incr frontier_len
    end
  in
  let consider sender receiver =
    if active sender && (not (St.Bitset.unsafe_get informed receiver)) && transmits () then
      enqueue receiver
  in
  (* Close the round: I_{t+1} = I_t ∪ frontier. *)
  let commit () =
    incr t;
    for i = 0 to !frontier_len - 1 do
      let v = St.I32.unsafe_get frontier i in
      St.Bitset.unsafe_clear queued v;
      St.Bitset.unsafe_set informed v;
      St.I32.unsafe_set informed_at v !t;
      St.I32.unsafe_set order !n_informed v;
      incr n_informed
    done;
    push_traj !n_informed;
    Obs.Metrics.incr c_rounds;
    if tracing then
      while !next_milestone < 4 && !n_informed >= fst milestones.(!next_milestone) do
        let _, quarter = milestones.(!next_milestone) in
        Obs.Trace.emit "flood.milestone"
          [ ("quarter", Int quarter); ("t", Int !t); ("informed", Int !n_informed) ];
        incr next_milestone
      done
  in
  if protocol = Flood then
    (* The model reports N_t(I_t) \ I_t itself. [get] is the checked
       read, so a hook reporting an out-of-range node raises instead of
       overrunning the frontier. *)
    let reached v = if not (St.Bitset.get informed v) then enqueue v in
    while !n_informed < n && !t < cap do
      frontier_len := 0;
      Obs.Metrics.add c_edges (Dynamic.boundary g informed reached);
      Obs.Metrics.incr c_snapshots;
      commit ();
      Dynamic.step g
    done
  else if not (Dynamic.has_deltas g) then begin
    let read = ref 0 in
    let visit u v =
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Flooding.run: edge endpoint out of range";
      incr read;
      consider u v;
      consider v u
    in
    while !n_informed < n && !t < cap do
      (* Edges of E_t determine I_{t+1}. *)
      frontier_len := 0;
      read := 0;
      Dynamic.iter_edges g visit;
      Obs.Metrics.incr c_snapshots;
      Obs.Metrics.add c_edges !read;
      commit ();
      Dynamic.step g
    done
  end
  else begin
    let sync =
      match (sc.sync_for, sc.sync) with
      | Some g', Some s when g' == g -> s
      | _ ->
          let s = Adj_sync.create g in
          sc.sync_for <- Some g;
          sc.sync <- Some s;
          s
    in
    (* The reused view's topology belongs to the previous trajectory. *)
    Adj_sync.invalidate sync;
    let refreshes0 = Adj_sync.refreshes sync in
    let delta_ops0 = Adj_sync.delta_ops sync in
    let scanned = ref 0 in
    (* The senders are [order.(lo ..)]. *)
    let lo = ref 0 in
    while !n_informed < n && !t < cap do
      frontier_len := 0;
      Adj_sync.ensure sync;
      (match protocol with
      | Parsimonious k ->
          while
            !lo < !n_informed
            && !t - St.I32.unsafe_get informed_at (St.I32.unsafe_get order !lo) >= k
          do
            incr lo
          done
      | Flood | Push _ -> ());
      let ({ v_deg; v_off; v_data } : Graph.Mutable_adj.view) =
        Graph.Mutable_adj.view (Adj_sync.adj sync)
      in
      for oi = !lo to !n_informed - 1 do
        let u = St.I32.unsafe_get order oi in
        let d = get v_deg u in
        let off = get v_off u in
        scanned := !scanned + d;
        for j = off to off + d - 1 do
          let v = get v_data j in
          if (not (St.Bitset.unsafe_get informed v)) && transmits () then enqueue v
        done
      done;
      commit ();
      Dynamic.step g;
      Adj_sync.advance sync
    done;
    Obs.Metrics.add c_edges !scanned;
    Obs.Metrics.add c_snapshots (Adj_sync.refreshes sync - refreshes0);
    Obs.Metrics.add c_delta_edges (Adj_sync.delta_ops sync - delta_ops0)
  end;
  if !n_informed < n then begin
    Obs.Metrics.incr c_cap_hits;
    if tracing then
      Obs.Trace.emit "flood.cap" [ ("t", Int !t); ("informed", Int !n_informed) ]
  end;
  if tracing then
    Obs.Trace.emit "flood.end" [ ("t", Int !t); ("informed", Int !n_informed) ];
  (sc, (if !n_informed = n then Some !t else None), !traj_len)

let run ?cap ?protocol ?storage:_ ~rng ~source g =
  let sc, time, traj_len = run_raw ?cap ?protocol ~rng ~source g in
  {
    time;
    trajectory = Array.init traj_len (fun i -> St.I32.get sc.traj i);
    arrivals = Array.init sc.s_n (fun v -> St.I32.get sc.informed_at v);
  }

let time ?cap ?protocol ~rng ~source g =
  let _, time, _ = run_raw ?cap ?protocol ~rng ~source g in
  time

let trial_time ?cap ?protocol ~rng ~source g =
  let cap_value = match cap with Some c -> c | None -> default_cap (Dynamic.n g) in
  match time ~cap:cap_value ?protocol ~rng ~source g with
  | Some t -> t
  | None -> cap_value

let mean_time ?cap ?protocol ?(sched = Exec.sequential) ~rng ~trials ?(source = 0) build =
  if trials < 1 then invalid_arg "Flooding.mean_time: trials must be >= 1";
  (* Substreams are derived up front, on the calling domain: trial [i]'s
     randomness depends only on [rng]'s current state and [i], never on
     which worker runs it or in what order. *)
  let rngs = Array.init trials (Prng.Rng.substream rng) in
  let job i = trial_time ?cap ?protocol ~rng:rngs.(i) ~source (build ()) in
  let reduce times =
    let summary = Stats.Summary.create () in
    Array.iter (fun t -> Stats.Summary.add summary (float_of_int t)) times;
    summary
  in
  Exec.run sched (Exec.plan ~jobs:trials ~job ~reduce)

let characteristic_time result =
  let total = ref 0 and count = ref 0 in
  Array.iter
    (fun a ->
      if a > 0 then begin
        total := !total + a;
        incr count
      end)
    result.arrivals;
  if !count = 0 then nan else float_of_int !total /. float_of_int !count

let worst_source_time ?cap ?protocol ?(sched = Exec.sequential) ~rng ?sources build =
  let sources =
    match sources with
    | Some [] -> invalid_arg "Flooding.worst_source_time: sources must be non-empty"
    | Some l -> Array.of_list l
    | None -> Array.init (Dynamic.n (build ())) (fun i -> i)
  in
  (* Seeded by source id, not job index, so the result is independent of
     the sources list's order as well as of the scheduler. *)
  let rngs = Array.map (Prng.Rng.substream rng) sources in
  let job i = trial_time ?cap ?protocol ~rng:rngs.(i) ~source:sources.(i) (build ()) in
  Exec.run sched
    (Exec.plan ~jobs:(Array.length sources) ~job ~reduce:(Array.fold_left max 0))
