type init = Stationary | Empty | Full

let make_heap ~init ~n ~p ~q () =
  let chain = Markov.Two_state.make ~p ~q in
  let total = Graph.Pairs.total n in
  (* Present edges live in a sparse set over the pair indices: the
     birth scan's membership check is two array reads, the death scan
     subsamples the dense array geometrically, and enumeration is a
     linear walk — no hashing anywhere in the step. *)
  let present = Graph.Sparse_set.create total in
  let rng = ref (Prng.Rng.of_seed 0) in
  (* Tabulated geometric samplers (one per scan probability), built
     once per model: every skip draw of the birth, death and
     stationary-init scans becomes two table reads instead of a
     logarithm — the scans' dominant per-draw cost. [None] disables
     the scan (prob = 0) or routes prob = 1 through the exact
     exhaustive branches. *)
  let geo prob = if prob > 0. && prob < 1. then Some (Prng.Rng.Geo.make ~p:prob) else None in
  let geo_p = geo p in
  let geo_q = geo q in
  let alpha = Markov.Two_state.stationary_on chain in
  let geo_alpha = geo alpha in
  (* Endpoint mirror: eu.(i) / ev.(i) are the decoded endpoints of the
     pair index at dense slot [i] of [present], maintained through
     every add and swap-remove. Enumeration reads them back instead of
     decoding (no sqrt per edge); only births decode, and those arrive
     in ascending index order, so an incremental row cursor decodes
     each in O(1). Grown on demand to the peak live-edge count. *)
  let eu = ref (Array.make 64 0) in
  let ev = ref (Array.make 64 0) in
  let ensure_ends needed =
    if needed > Array.length !eu then begin
      let cap = max needed (2 * Array.length !eu) in
      let bu = Array.make cap 0 and bv = Array.make cap 0 in
      Array.blit !eu 0 bu 0 (Array.length !eu);
      Array.blit !ev 0 bv 0 (Array.length !ev);
      eu := bu;
      ev := bv
    end
  in
  (* Visit each pair index independently with probability [prob] via
     geometric jumps (O(total · prob) expected draws), handing the
     callback the decoded endpoints from the monotone cursor. Only the
     prob = 1 paths land here (the tabulated samplers cover (0, 1) and
     the hot scans are written out at their call sites); [geometric]
     then returns 0 every draw, an exhaustive walk. *)
  let scan_pairs r prob f =
    if prob > 0. then begin
      let idx = ref (Prng.Rng.geometric r prob) in
      if !idx < total then begin
        let u = ref 0 and base = ref 0 and next = ref (n - 1) in
        while !idx < total do
          while !idx >= !next do
            incr u;
            base := !next;
            next := !next + (n - 1 - !u)
          done;
          f !idx !u (!u + 1 + (!idx - !base));
          idx := !idx + 1 + Prng.Rng.geometric r prob
        done
      end
    end
  in
  let add_present idx u v =
    (* Both call sites (reset's stationary scan, step's birth apply)
       only ever pass absent indices, so skip [add]'s membership
       re-check. *)
    let pos = Graph.Sparse_set.length present in
    ensure_ends (pos + 1);
    Graph.Sparse_set.add_unchecked present idx;
    Array.unsafe_set !eu pos u;
    Array.unsafe_set !ev pos v
  in
  (* Birth hits of the current step (index + endpoints), reused across
     steps; deaths are collected into a reused edge buffer. Together
     they are the step's delta report. *)
  let b_idx = ref (Array.make 64 0) in
  let b_u = ref (Array.make 64 0) in
  let b_v = ref (Array.make 64 0) in
  let n_births = ref 0 in
  let push_birth idx u v =
    let k = !n_births in
    if k = Array.length !b_idx then begin
      let cap = 2 * k in
      let grow a = let b = Array.make cap 0 in Array.blit !a 0 b 0 k; a := b in
      grow b_idx;
      grow b_u;
      grow b_v
    end;
    Array.unsafe_set !b_idx k idx;
    Array.unsafe_set !b_u k u;
    Array.unsafe_set !b_v k v;
    n_births := k + 1
  in
  let deaths = Graph.Edge_buffer.create ~capacity:64 () in
  let deltas_valid = ref false in
  (* Saturated initialisation: the whole universe, mirror decoded by
     one monotone walk (dense slot i holds pair index i after
     fill_all). *)
  let reset_full () =
    ensure_ends total;
    Graph.Sparse_set.fill_all present;
    let u = ref 0 and base = ref 0 and next = ref (n - 1) in
    for idx = 0 to total - 1 do
      while idx >= !next do
        incr u;
        base := !next;
        next := !next + (n - 1 - !u)
      done;
      Array.unsafe_set !eu idx !u;
      Array.unsafe_set !ev idx (!u + 1 + (idx - !base))
    done
  in
  let reset r =
    rng := r;
    Graph.Sparse_set.clear present;
    deltas_valid := false;
    match init with
    | Empty -> ()
    | Full -> reset_full ()
    | Stationary ->
        if alpha >= 1. then reset_full ()
        else (
          match geo_alpha with
          | Some geo ->
              (* [scan_pairs]'s loop with the insert call written
                 directly — reset is once per trial but still
                 ~alpha·total events of the run's budget. *)
              let r = !rng in
              let idx = ref (Prng.Rng.Geo.draw geo r) in
              if !idx < total then begin
                let u = ref 0 and base = ref 0 and next = ref (n - 1) in
                while !idx < total do
                  while !idx >= !next do
                    incr u;
                    base := !next;
                    next := !next + (n - 1 - !u)
                  done;
                  let i = !idx in
                  add_present i !u (!u + 1 + (i - !base));
                  idx := i + 1 + Prng.Rng.Geo.draw geo r
                done
              end
          | None -> scan_pairs !rng alpha (fun idx u v -> add_present idx u v))
  in
  (* A step applies, to every edge simultaneously, one transition of its
     two-state chain: absent edges are born with probability p, present
     edges die with probability q. Birth hits are collected against the
     pre-step edge set *before* deaths are applied, so an edge that dies
     this step cannot also be resurrected by the birth scan. *)
  let step () =
    n_births := 0;
    Graph.Edge_buffer.clear deaths;
    (* Birth scan, written out instead of going through [scan_pairs]:
       this is the hottest loop in the model and the closure per event
       (callback + capture reads) costs as much as the membership test
       itself. Same cursor walk, same draw sequence. *)
    (match geo_p with
    | Some geo ->
        let r = !rng in
        let idx = ref (Prng.Rng.Geo.draw geo r) in
        if !idx < total then begin
          let u = ref 0 and base = ref 0 and next = ref (n - 1) in
          while !idx < total do
            while !idx >= !next do
              incr u;
              base := !next;
              next := !next + (n - 1 - !u)
            done;
            let i = !idx in
            if not (Graph.Sparse_set.mem present i) then
              push_birth i !u (!u + 1 + (i - !base));
            idx := i + 1 + Prng.Rng.Geo.draw geo r
          done
        end
    | None ->
        scan_pairs !rng p (fun idx u v ->
            if not (Graph.Sparse_set.mem present idx) then push_birth idx u v));
    (* The death scan never grows the mirror, so its arrays can be
       hoisted out of the callback. *)
    let us = !eu and vs = !ev in
    let on_death _ i =
      (* The dying edge's endpoints still sit at mirror slot [i]; the
         survivor swapped into [i] has its payload at the old last
         slot, [length present]. *)
      Graph.Edge_buffer.push deaths (Array.unsafe_get us i) (Array.unsafe_get vs i);
      let last = Graph.Sparse_set.length present in
      Array.unsafe_set us i (Array.unsafe_get us last);
      Array.unsafe_set vs i (Array.unsafe_get vs last)
    in
    (match geo_q with
    | Some geo -> Graph.Sparse_set.remove_geo_pos present geo !rng on_death
    | None -> Graph.Sparse_set.remove_bernoulli_pos present !rng ~p:q on_death);
    (* Apply the buffered births in one batch: a single capacity check
       for the whole block, then straight unsafe stores. *)
    let nb = !n_births in
    if nb > 0 then begin
      let pos0 = Graph.Sparse_set.length present in
      ensure_ends (pos0 + nb);
      let us = !eu and vs = !ev in
      let bi = !b_idx and bu = !b_u and bv = !b_v in
      for k = 0 to nb - 1 do
        let pos = pos0 + k in
        Graph.Sparse_set.add_unchecked present (Array.unsafe_get bi k);
        Array.unsafe_set us pos (Array.unsafe_get bu k);
        Array.unsafe_set vs pos (Array.unsafe_get bv k)
      done
    end;
    deltas_valid := true
  in
  let iter_edges f =
    let len = Graph.Sparse_set.length present in
    let us = !eu and vs = !ev in
    for i = 0 to len - 1 do
      f (Array.unsafe_get us i) (Array.unsafe_get vs i)
    done
  in
  (* Same dense walk as [iter_edges] (the enumeration orders must
     agree), pushing straight into the buffer. *)
  let fill_edges buf =
    let len = Graph.Sparse_set.length present in
    let us = !eu and vs = !ev in
    for i = 0 to len - 1 do
      Graph.Edge_buffer.push buf (Array.unsafe_get us i) (Array.unsafe_get vs i)
    done
  in
  let deltas ~birth ~death =
    !deltas_valid
    && begin
         let us = !b_u and vs = !b_v in
         for k = 0 to !n_births - 1 do
           birth (Array.unsafe_get us k) (Array.unsafe_get vs k)
         done;
         Graph.Edge_buffer.iter deaths (fun u v -> death u v);
         true
       end
  in
  let expected_edges =
    match init with
    | Full -> total
    | Empty | Stationary -> int_of_float (ceil (alpha *. float_of_int total))
  in
  let delta_size () =
    if !deltas_valid then !n_births + Graph.Edge_buffer.length deaths else 0
  in
  Core.Dynamic.make ~fill_edges ~deltas ~delta_size ~expected_edges ~n ~reset ~step
    ~iter_edges ()

(* Partition-parallel off-heap engine (DESIGN.md section 11). The pair
   universe is cut into [strips_default] fixed contiguous strips — a
   function of nothing but the strip count, never of worker count or
   [parts] — and each strip owns the complete per-range state: its own
   present set, endpoint mirror, birth/death buffers, decode-cursor
   seed, and an RNG substream derived from the reset seed by {e strip
   index}. A step runs every strip's birth scan / death subsample /
   birth apply independently (fanned over {!Exec.Pool.run_tiles} in
   groups of [strips / parts]); delta reports and enumeration
   concatenate strips in index order. Results are therefore a function
   of the reset seed alone: identical at any [parts] and any pool
   worker count (test/test_parallel.ml pins both).

   Its draw stream deliberately differs from the heap engine's single
   stream; [make] routes to it only at n >= offheap_nodes or on an
   explicit [?parts], so every golden-sized run (n < 2^17) executes
   the heap engine. The two engines agree in law, which the
   oracle tests in test/test_edge_meg.ml check statistically. [Full]
   initialisation — and [Stationary] when alpha >= 1 — would saturate
   the universe and is rejected; without [?parts], [make] routes those
   to the heap engine. *)
let strips_default = 64

type strip = {
  lo : int;  (* pair range [lo, hi) *)
  hi : int;
  u0 : int;  (* decode cursor seeded at [lo]: row, row base, next row base *)
  base0 : int;
  next0 : int;
  present : Graph.Sparse_set.Big.t;
  eu : Graph.Storage.I32.t;  (* endpoint mirror of the strip's dense slots *)
  ev : Graph.Storage.I32.t;
  b_idx : Graph.Storage.Ix.t;  (* buffered births of the current step *)
  b_u : Graph.Storage.I32.t;
  b_v : Graph.Storage.I32.t;
  mutable n_births : int;
  d_u : Graph.Storage.I32.t;  (* deaths of the current step *)
  d_v : Graph.Storage.I32.t;
  mutable n_deaths : int;
  mutable rng : Prng.Rng.t;  (* substream [strip index] of the reset seed *)
}

let make_partitioned ~init ~n ~p ~q ~parts () =
  let module St = Graph.Storage in
  let module Big = Graph.Sparse_set.Big in
  if n > St.max_nodes then invalid_arg "Classic.make: n exceeds the int32 id range";
  let chain = Markov.Two_state.make ~p ~q in
  let total = Graph.Pairs.total n in
  let alpha = Markov.Two_state.stationary_on chain in
  (match init with
  | Full -> invalid_arg "Classic.make: Full initialisation needs the heap engine (no ?parts)"
  | Stationary when alpha >= 1. ->
      invalid_arg "Classic.make: saturated stationary initialisation needs the heap engine (no ?parts)"
  | Stationary | Empty -> ());
  let expected_edges = int_of_float (ceil (alpha *. float_of_int total)) in
  let geo prob = if prob > 0. && prob < 1. then Some (Prng.Rng.Geo.make ~p:prob) else None in
  let geo_p = geo p in
  let geo_q = geo q in
  let geo_alpha = geo alpha in
  let strips = strips_default in
  let parts = min parts strips in
  (* floor (s * total / strips) without overflowing s * total (the pair
     universe alone can exceed 2^60). *)
  let bound s = (total / strips * s) + (total mod strips * s / strips) in
  let mk_strip s =
    let lo = bound s and hi = bound (s + 1) in
    let u0, base0, next0 =
      if lo >= hi then (0, 0, n - 1)
      else
        let u, v = Graph.Pairs.decode n lo in
        let base = lo - (v - u - 1) in
        (u, base, base + (n - 1 - u))
    in
    let cap = max 64 (int_of_float (ceil (alpha *. float_of_int (hi - lo)))) in
    {
      lo;
      hi;
      u0;
      base0;
      next0;
      present = Big.create ~capacity:cap total;
      eu = St.I32.create 64;
      ev = St.I32.create 64;
      b_idx = St.Ix.create 64;
      b_u = St.I32.create 64;
      b_v = St.I32.create 64;
      n_births = 0;
      d_u = St.I32.create 64;
      d_v = St.I32.create 64;
      n_deaths = 0;
      rng = Prng.Rng.of_seed 0;
    }
  in
  let ss = Array.init strips mk_strip in
  let pbound j = j * strips / parts in
  let add_present st idx u v =
    let pos = Big.length st.present in
    St.I32.ensure st.eu (pos + 1);
    St.I32.ensure st.ev (pos + 1);
    Big.add_unchecked st.present idx;
    St.I32.unsafe_set st.eu pos u;
    St.I32.unsafe_set st.ev pos v
  in
  let push_birth st idx u v =
    let k = st.n_births in
    St.Ix.ensure st.b_idx (k + 1);
    St.I32.ensure st.b_u (k + 1);
    St.I32.ensure st.b_v (k + 1);
    St.Ix.unsafe_set st.b_idx k idx;
    St.I32.unsafe_set st.b_u k u;
    St.I32.unsafe_set st.b_v k v;
    st.n_births <- k + 1
  in
  (* Strip-local variant of [scan_pairs]: visit each pair of [lo, hi)
     independently with probability [prob], cursor seeded at [lo]. Only
     the prob = 1 exhaustive paths land here; the hot scans below are
     written out with the tabulated samplers. *)
  let scan_strip st r prob f =
    if prob > 0. then begin
      let idx = ref (st.lo + Prng.Rng.geometric r prob) in
      if !idx < st.hi then begin
        let u = ref st.u0 and base = ref st.base0 and next = ref st.next0 in
        while !idx < st.hi do
          while !idx >= !next do
            incr u;
            base := !next;
            next := !next + (n - 1 - !u)
          done;
          f !idx !u (!u + 1 + (!idx - !base));
          idx := !idx + 1 + Prng.Rng.geometric r prob
        done
      end
    end
  in
  let deltas_valid = ref false in
  let strip_reset st =
    Big.clear st.present;
    st.n_births <- 0;
    st.n_deaths <- 0;
    match init with
    | Empty -> ()
    | Full -> assert false
    | Stationary -> (
        match geo_alpha with
        | Some geo ->
            let r = st.rng in
            let idx = ref (st.lo + Prng.Rng.Geo.draw geo r) in
            if !idx < st.hi then begin
              let u = ref st.u0 and base = ref st.base0 and next = ref st.next0 in
              while !idx < st.hi do
                while !idx >= !next do
                  incr u;
                  base := !next;
                  next := !next + (n - 1 - !u)
                done;
                let i = !idx in
                add_present st i !u (!u + 1 + (i - !base));
                idx := i + 1 + Prng.Rng.Geo.draw geo r
              done
            end
        | None -> scan_strip st st.rng alpha (fun idx u v -> add_present st idx u v))
  in
  let strip_step st =
    st.n_births <- 0;
    st.n_deaths <- 0;
    (match geo_p with
    | Some geo ->
        let r = st.rng in
        let idx = ref (st.lo + Prng.Rng.Geo.draw geo r) in
        if !idx < st.hi then begin
          let u = ref st.u0 and base = ref st.base0 and next = ref st.next0 in
          while !idx < st.hi do
            while !idx >= !next do
              incr u;
              base := !next;
              next := !next + (n - 1 - !u)
            done;
            let i = !idx in
            if not (Big.mem st.present i) then push_birth st i !u (!u + 1 + (i - !base));
            idx := i + 1 + Prng.Rng.Geo.draw geo r
          done
        end
    | None ->
        scan_strip st st.rng p (fun idx u v ->
            if not (Big.mem st.present idx) then push_birth st idx u v));
    let on_death _ i =
      let k = st.n_deaths in
      St.I32.ensure st.d_u (k + 1);
      St.I32.ensure st.d_v (k + 1);
      St.I32.unsafe_set st.d_u k (St.I32.unsafe_get st.eu i);
      St.I32.unsafe_set st.d_v k (St.I32.unsafe_get st.ev i);
      st.n_deaths <- k + 1;
      let last = Big.length st.present in
      St.I32.unsafe_set st.eu i (St.I32.unsafe_get st.eu last);
      St.I32.unsafe_set st.ev i (St.I32.unsafe_get st.ev last)
    in
    (match geo_q with
    | Some geo -> Big.remove_geo_pos st.present geo st.rng on_death
    | None -> Big.remove_bernoulli_pos st.present st.rng ~p:q on_death);
    let nb = st.n_births in
    if nb > 0 then begin
      let pos0 = Big.length st.present in
      St.I32.ensure st.eu (pos0 + nb);
      St.I32.ensure st.ev (pos0 + nb);
      for k = 0 to nb - 1 do
        let pos = pos0 + k in
        Big.add_unchecked st.present (St.Ix.unsafe_get st.b_idx k);
        St.I32.unsafe_set st.eu pos (St.I32.unsafe_get st.b_u k);
        St.I32.unsafe_set st.ev pos (St.I32.unsafe_get st.b_v k)
      done
    end
  in
  let reset r =
    deltas_valid := false;
    (* Substreams are indexed by strip, not by domain or part: derived
       sequentially here, before any fan-out, so the strip streams are
       a pure function of the reset seed. *)
    for s = 0 to strips - 1 do
      ss.(s).rng <- Prng.Rng.substream r s
    done;
    Exec.Pool.run_tiles parts (fun j ->
        for s = pbound j to pbound (j + 1) - 1 do
          strip_reset ss.(s)
        done)
  in
  let step () =
    Exec.Pool.run_tiles parts (fun j ->
        for s = pbound j to pbound (j + 1) - 1 do
          strip_step ss.(s)
        done);
    deltas_valid := true
  in
  let iter_edges f =
    for s = 0 to strips - 1 do
      let st = ss.(s) in
      let len = Big.length st.present in
      for i = 0 to len - 1 do
        f (St.I32.unsafe_get st.eu i) (St.I32.unsafe_get st.ev i)
      done
    done
  in
  let fill_edges buf =
    for s = 0 to strips - 1 do
      let st = ss.(s) in
      let len = Big.length st.present in
      for i = 0 to len - 1 do
        Graph.Edge_buffer.push buf (St.I32.unsafe_get st.eu i) (St.I32.unsafe_get st.ev i)
      done
    done
  in
  let deltas ~birth ~death =
    !deltas_valid
    && begin
         for s = 0 to strips - 1 do
           let st = ss.(s) in
           for k = 0 to st.n_births - 1 do
             birth (St.I32.unsafe_get st.b_u k) (St.I32.unsafe_get st.b_v k)
           done;
           for k = 0 to st.n_deaths - 1 do
             death (St.I32.unsafe_get st.d_u k) (St.I32.unsafe_get st.d_v k)
           done
         done;
         true
       end
  in
  let delta_size () =
    if !deltas_valid then Array.fold_left (fun acc st -> acc + st.n_births + st.n_deaths) 0 ss
    else 0
  in
  Core.Dynamic.make ~fill_edges ~deltas ~delta_size ~expected_edges ~n ~reset ~step
    ~iter_edges ()

let make ?(init = Stationary) ?parts ~n ~p ~q () =
  match parts with
  | Some k ->
      if k < 1 then invalid_arg "Classic.make: parts must be >= 1";
      make_partitioned ~init ~n ~p ~q ~parts:k ()
  | None ->
      (* Big graphs go off-heap (partitioned) unless the run needs a
         saturated start, which only the universe-sized heap layout can
         hold. *)
      if
        n >= Graph.Storage.offheap_nodes
        && init <> Full
        && Markov.Two_state.stationary_on (Markov.Two_state.make ~p ~q) < 1.
      then make_partitioned ~init ~n ~p ~q ~parts:strips_default ()
      else make_heap ~init ~n ~p ~q ()

let params ~p ~q = Markov.Two_state.make ~p ~q

let expected_stationary_edges ~n ~p ~q =
  let chain = Markov.Two_state.make ~p ~q in
  Markov.Two_state.stationary_on chain *. float_of_int (Graph.Pairs.total n)
