let stationary_alpha ~chain ~chi =
  let pi = Markov.Chain.stationary chain in
  let acc = ref 0. in
  Array.iteri (fun s mass -> if chi s then acc := !acc +. mass) pi;
  !acc

let make ?(init = `Stationary) ~n ~chain ~chi () =
  let total = Graph.Pairs.total n in
  let states = Array.make total 0 in
  (* The chi-on pairs are mirrored into a sparse set as the hidden
     chains move, so snapshot enumeration walks m dense slots instead
     of testing chi on all n(n-1)/2 cells. A parallel endpoint mirror
     (eu/ev, as in {!Classic}) keeps the decoded endpoints alongside
     the dense slots: every scan that flips presence visits indices in
     ascending order, so a monotone cursor decodes each flip in O(1)
     and enumeration never decodes at all. *)
  let present = Graph.Sparse_set.create total in
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
  let add_present idx u v =
    let pos = Graph.Sparse_set.length present in
    ensure_ends (pos + 1);
    Graph.Sparse_set.add present idx;
    Array.unsafe_set !eu pos u;
    Array.unsafe_set !ev pos v
  in
  let remove_present idx =
    let i = Graph.Sparse_set.find present idx in
    Graph.Sparse_set.remove present idx;
    let last = Graph.Sparse_set.length present in
    Array.unsafe_set !eu i (Array.unsafe_get !eu last);
    Array.unsafe_set !ev i (Array.unsafe_get !ev last)
  in
  let rng = ref (Prng.Rng.of_seed 0) in
  let stationary_sampler =
    lazy (Prng.Discrete.of_weights (Markov.Chain.stationary chain))
  in
  (* Presence flips of the current step, reused across steps — the
     step's delta report. *)
  let births = Graph.Edge_buffer.create ~capacity:64 () in
  let deaths = Graph.Edge_buffer.create ~capacity:64 () in
  let deltas_valid = ref false in
  let reset r =
    rng := r;
    Graph.Sparse_set.clear present;
    deltas_valid := false;
    match init with
    | `State s ->
        if s < 0 || s >= Markov.Chain.n_states chain then
          invalid_arg "General.make: initial state out of range";
        Array.fill states 0 total s;
        if chi s then begin
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
        end
    | `Stationary ->
        let sampler = Lazy.force stationary_sampler in
        let u = ref 0 and base = ref 0 and next = ref (n - 1) in
        for idx = 0 to total - 1 do
          let s = Prng.Discrete.draw sampler !rng in
          states.(idx) <- s;
          if chi s then begin
            while idx >= !next do
              incr u;
              base := !next;
              next := !next + (n - 1 - !u)
            done;
            add_present idx !u (!u + 1 + (idx - !base))
          end
        done
  in
  let step () =
    Graph.Edge_buffer.clear births;
    Graph.Edge_buffer.clear deaths;
    let u = ref 0 and base = ref 0 and next = ref (n - 1) in
    for idx = 0 to total - 1 do
      let s = Markov.Chain.step chain !rng states.(idx) in
      states.(idx) <- s;
      let now = chi s in
      let was = Graph.Sparse_set.mem present idx in
      if now <> was then begin
        while idx >= !next do
          incr u;
          base := !next;
          next := !next + (n - 1 - !u)
        done;
        let eu_ = !u and ev_ = !u + 1 + (idx - !base) in
        if now then begin
          add_present idx eu_ ev_;
          Graph.Edge_buffer.push births eu_ ev_
        end
        else begin
          remove_present idx;
          Graph.Edge_buffer.push deaths eu_ ev_
        end
      end
    done;
    deltas_valid := true
  in
  let iter_edges f =
    let len = Graph.Sparse_set.length present in
    let us = !eu and vs = !ev in
    for i = 0 to len - 1 do
      f (Array.unsafe_get us i) (Array.unsafe_get vs i)
    done
  in
  let deltas ~birth ~death =
    !deltas_valid
    && begin
         Graph.Edge_buffer.iter births (fun u v -> birth u v);
         Graph.Edge_buffer.iter deaths (fun u v -> death u v);
         true
       end
  in
  let expected_edges =
    match init with
    | `State s -> if chi s then total else n
    | `Stationary -> int_of_float (ceil (stationary_alpha ~chain ~chi *. float_of_int total))
  in
  let delta_size () =
    if !deltas_valid then Graph.Edge_buffer.length births + Graph.Edge_buffer.length deaths
    else 0
  in
  Core.Dynamic.make ~deltas ~delta_size ~expected_edges ~n ~reset ~step ~iter_edges ()

let bound ~chain ~chi ~n =
  let alpha = stationary_alpha ~chain ~chi in
  let t_mix =
    match Markov.Chain.mixing_time chain with
    | Some 0 | None -> 1.
    | Some t -> float_of_int t
  in
  let fn = float_of_int n in
  let logn = log fn in
  t_mix *. (((1. /. (fn *. alpha)) +. 1.) ** 2.) *. logn *. logn
