type init = Stationary | All_in of int | Uniform_states

(* Everything here depends on the chain and the connection map only, so
   it is built once and shared, read-only, by every model (and every
   pool domain) drawn from it. [table] holds '\001' at x * s + y when
   states x and y connect. *)
type space = {
  chain : Markov.Chain.t;
  s : int;
  table : Bytes.t;
  connected_pairs : int;
  pi : float array;
  sampler : Prng.Discrete.t;
}

let space ~chain ~connect =
  let s = Markov.Chain.n_states chain in
  let table = Bytes.make (s * s) '\000' in
  let connected_pairs = ref 0 in
  for x = 0 to s - 1 do
    for y = x to s - 1 do
      let c = connect x y in
      if c <> connect y x then invalid_arg "Node_meg.space: connection map is not symmetric";
      if c then begin
        Bytes.set table ((x * s) + y) '\001';
        Bytes.set table ((y * s) + x) '\001';
        connected_pairs := !connected_pairs + if x = y then 1 else 2
      end
    done
  done;
  let pi = Markov.Chain.stationary chain in
  { chain; s; table; connected_pairs = !connected_pairs; pi; sampler = Prng.Discrete.of_weights pi }

let chain sp = sp.chain

let stationary sp = Array.copy sp.pi

let linked table i = Bytes.unsafe_get table i = '\001'

let make_observable ?(init = Stationary) ~n sp =
  let { chain; s; table; connected_pairs; sampler; _ } = sp in
  (match init with
  | All_in x when x < 0 || x >= s -> invalid_arg "Node_meg.make: initial state out of range"
  | _ -> ());
  let states = Array.make n 0 in
  let rng = ref (Prng.Rng.of_seed 0) in
  (* Delta support: a step only moves edges incident to nodes whose
     chain state actually changed, so the step records which nodes
     moved (plus a full copy of the pre-step states) and the delta hook
     reconstructs the edge changes by comparing connection-table rows.
     Cost is n_changed * n lookups; when that exceeds a small multiple
     of the full-rebuild cost the hook declines and lets the consumer
     re-enumerate. *)
  let old_states = Array.make n 0 in
  let changed = Array.make n 0 in
  let n_changed = ref 0 in
  let is_changed = Bytes.make n '\000' in
  let deltas_valid = ref false in
  (* Edge-count estimate from the connection map's density — a sizing
     hint and decline budget, nothing correctness-bearing. *)
  let m_est =
    let frac = float_of_int connected_pairs /. float_of_int (s * s) in
    int_of_float (ceil (frac *. float_of_int (Graph.Pairs.total n)))
  in
  let delta_budget = 2 * (n + m_est) in
  let reset r =
    rng := r;
    deltas_valid := false;
    match init with
    | All_in x -> Array.fill states 0 n x
    | Uniform_states ->
        for i = 0 to n - 1 do
          states.(i) <- Prng.Rng.int !rng s
        done
    | Stationary ->
        for i = 0 to n - 1 do
          states.(i) <- Prng.Discrete.draw sampler !rng
        done
  in
  let step () =
    Array.blit states 0 old_states 0 n;
    Bytes.fill is_changed 0 n '\000';
    n_changed := 0;
    for i = 0 to n - 1 do
      let s' = Markov.Chain.step chain !rng states.(i) in
      if s' <> states.(i) then begin
        states.(i) <- s';
        changed.(!n_changed) <- i;
        incr n_changed;
        Bytes.unsafe_set is_changed i '\001'
      end
    done;
    deltas_valid := true
  in
  let deltas ~birth ~death =
    !deltas_valid
    && !n_changed * n <= delta_budget
    && begin
         for k = 0 to !n_changed - 1 do
           let i = changed.(k) in
           let old_row = old_states.(i) * s and new_row = states.(i) * s in
           for j = 0 to n - 1 do
             (* Pairs of two changed nodes are handled once, by the
                larger endpoint (whose scan sees the smaller one). *)
             if j <> i && not (Bytes.unsafe_get is_changed j = '\001' && j > i) then begin
               let was = linked table (old_row + old_states.(j)) in
               let now = linked table (new_row + states.(j)) in
               if was <> now then
                 if now then birth (min i j) (max i j) else death (min i j) (max i j)
             end
           done
         done;
         true
       end
  in
  (* Bucket nodes by state with a counting sort into reused scratch
     arrays, then emit cross products for connected state pairs (and
     within-bucket pairs for self-connected states). Buckets are in
     ascending state order and ascending node order within a bucket —
     the same emission order the old per-call list buckets produced,
     now without any per-snapshot allocation. *)
  let bucket_start = Array.make (s + 1) 0 in
  let bucket_cursor = Array.make s 0 in
  let members = Array.make n 0 in
  let iter_edges f =
    Array.fill bucket_cursor 0 s 0;
    for i = 0 to n - 1 do
      bucket_cursor.(states.(i)) <- bucket_cursor.(states.(i)) + 1
    done;
    bucket_start.(0) <- 0;
    for x = 0 to s - 1 do
      bucket_start.(x + 1) <- bucket_start.(x) + bucket_cursor.(x);
      bucket_cursor.(x) <- bucket_start.(x)
    done;
    for i = 0 to n - 1 do
      members.(bucket_cursor.(states.(i))) <- i;
      bucket_cursor.(states.(i)) <- bucket_cursor.(states.(i)) + 1
    done;
    for x = 0 to s - 1 do
      let lo_x = bucket_start.(x) and hi_x = bucket_start.(x + 1) in
      if hi_x > lo_x then begin
        if linked table ((x * s) + x) then
          for a = lo_x to hi_x - 1 do
            for b = a + 1 to hi_x - 1 do
              f members.(a) members.(b)
            done
          done;
        for y = x + 1 to s - 1 do
          if linked table ((x * s) + y) then
            for a = lo_x to hi_x - 1 do
              for b = bucket_start.(y) to bucket_start.(y + 1) - 1 do
                f members.(a) members.(b)
              done
            done
        done
      end
    done
  in
  let dyn = Core.Dynamic.make ~deltas ~expected_edges:m_est ~n ~reset ~step ~iter_edges () in
  (dyn, fun () -> Array.copy states)

let make ?init ~n sp = fst (make_observable ?init ~n sp)

let q_of_state sp =
  let { s; pi; table; _ } = sp in
  Array.init s (fun x ->
      let acc = ref 0. in
      for y = 0 to s - 1 do
        if linked table ((x * s) + y) then acc := !acc +. pi.(y)
      done;
      !acc)

let p_nm sp =
  let q = q_of_state sp in
  let acc = ref 0. in
  Array.iteri (fun x px -> acc := !acc +. (px *. q.(x))) sp.pi;
  !acc

let p_nm2 sp =
  let q = q_of_state sp in
  let acc = ref 0. in
  Array.iteri (fun x px -> acc := !acc +. (px *. q.(x) *. q.(x))) sp.pi;
  !acc

let eta sp =
  let p = p_nm sp in
  if p <= 0. then invalid_arg "Node_meg.eta: P_NM is zero";
  p_nm2 sp /. (p *. p)

let theorem3_bound sp ~n ?t_mix () =
  let t_mix =
    match t_mix with
    | Some t -> t
    | None -> (
        match Markov.Chain.mixing_time sp.chain with
        | Some 0 | None -> 1.
        | Some t -> float_of_int t)
  in
  Theory.Bounds.theorem3 ~t_mix ~p_nm:(p_nm sp) ~eta:(eta sp) ~n
