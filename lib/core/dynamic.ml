type t = {
  n : int;
  reset : Prng.Rng.t -> unit;
  step : unit -> unit;
  iter_edges : (int -> int -> unit) -> unit;
  deltas : (birth:(int -> int -> unit) -> death:(int -> int -> unit) -> bool) option;
      (* Reports the edge changes of the most recent [step] (births and
         deaths relative to the previous snapshot, as a multiset) or
         returns false to decline, in which case the consumer must
         re-enumerate the snapshot. See dynamic.mli for the full
         contract. *)
  expected_edges : int option;
      (* Model-supplied guess of a typical snapshot's edge count, used
         to size buffers. *)
  delta_size : (unit -> int) option;
      (* O(1) estimate of how many birth/death events the pending
         [deltas] report would emit, so a consumer can decide between
         applying the deltas and rebuilding from the snapshot without
         consuming anything. Advisory: approximate values are fine,
         correctness never depends on it. *)
  boundary : Graph.Storage.Bitset.t -> (int -> unit) -> int;
      (* Reports, once each, the nodes outside the given set with a
         neighbour inside it in the current snapshot, and returns the
         number of candidate pairs tested. See dynamic.mli. *)
}

(* Raw reads and writes of a Storage.Bitset block: under -opaque the
   Bitset accessors are calls, two or three per edge here. *)
let[@inline] bit b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_bit b i =
  let k = i lsr 3 in
  Bytes.unsafe_set b k (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (i land 7))))

(* The boundary of a model without a native hook: one [iter_edges]
   pass in which an edge with exactly one endpoint inside reports the
   other, once per call through [seen], created on the first call so
   [make] allocates nothing O(n) for it. It returns the edges read. *)
let derived_boundary n iter_edges =
  let seen = lazy (Graph.Storage.Bitset.create n) in
  fun inside f ->
    if Graph.Storage.Bitset.length inside <> n then
      invalid_arg "Dynamic.boundary: inside set length mismatch";
    let seen = Lazy.force seen in
    Graph.Storage.Bitset.clear_all seen;
    let ins = Graph.Storage.Bitset.bits inside and out = Graph.Storage.Bitset.bits seen in
    let read = ref 0 in
    iter_edges (fun u v ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Dynamic.boundary: edge endpoint out of range";
        incr read;
        let iu = bit ins u in
        if iu <> bit ins v then begin
          let w = if iu then v else u in
          if not (bit out w) then begin
            set_bit out w;
            f w
          end
        end);
    !read

let make ?fill_edges:_ ?deltas ?delta_size ?boundary ?expected_edges ~n ~reset ~step
    ~iter_edges () =
  if n < 1 then invalid_arg "Dynamic.make: n must be >= 1";
  let boundary =
    match boundary with Some b -> b | None -> derived_boundary n iter_edges
  in
  { n; reset; step; iter_edges; deltas; delta_size; boundary; expected_edges }

let n t = t.n

let reset t rng = t.reset rng

let step t = t.step ()

let iter_edges t f = t.iter_edges f

let fill_edges t buf =
  Graph.Edge_buffer.clear buf;
  t.iter_edges (fun u v -> Graph.Edge_buffer.push buf u v)

let has_deltas t = Option.is_some t.deltas

let deltas t ~birth ~death =
  match t.deltas with None -> false | Some report -> report ~birth ~death

let delta_size t = match t.delta_size with None -> None | Some f -> Some (f ())

let boundary t inside f = t.boundary inside f

let expected_edges t = match t.expected_edges with Some e -> max 1 e | None -> 4 * t.n

(* Explicit int-pair comparator: [compare] on (int * int) would walk
   the polymorphic-comparison interpreter per element. *)
let cmp_edge (a1, b1) (a2, b2) =
  if (a1 : int) <> a2 then compare (a1 : int) a2 else compare (b1 : int) b2

let snapshot_edges t =
  let acc = ref [] in
  t.iter_edges (fun u v -> acc := (min u v, max u v) :: !acc);
  List.sort_uniq cmp_edge !acc

let snapshot_graph t =
  let buf = Graph.Edge_buffer.create ~capacity:(max 16 (expected_edges t)) () in
  fill_edges t buf;
  Graph.Static.of_buffer ~n:t.n buf

let adjacency t =
  let adj = Array.make t.n [] in
  t.iter_edges (fun u v ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v));
  adj

let edge_count t =
  let c = ref 0 in
  t.iter_edges (fun _ _ -> incr c);
  !c

let isolated_fraction t =
  let touched = Array.make t.n false in
  t.iter_edges (fun u v ->
      touched.(u) <- true;
      touched.(v) <- true);
  let isolated = ref 0 in
  Array.iter (fun b -> if not b then incr isolated) touched;
  float_of_int !isolated /. float_of_int t.n

let of_static g =
  make
    ~n:(Graph.Static.n g)
    ~reset:(fun _ -> ())
    ~step:(fun () -> ())
    ~iter_edges:(fun f -> Graph.Static.iter_edges g f)
      (* The constant process: every step is a no-op, so the delta
         stream is trivially empty. *)
    ~deltas:(fun ~birth:_ ~death:_ -> true)
    ~delta_size:(fun () -> 0)
    ~expected_edges:(Graph.Static.m g) ()

let of_snapshots ~n snapshots =
  if Array.length snapshots = 0 then invalid_arg "Dynamic.of_snapshots: empty sequence";
  Array.iter
    (List.iter (fun (u, v) ->
         if u = v then invalid_arg "Dynamic.of_snapshots: self-loop";
         if u < 0 || u >= n || v < 0 || v >= n then
           invalid_arg "Dynamic.of_snapshots: endpoint out of range"))
    snapshots;
  let k = Array.length snapshots in
  (* Precompute the per-transition deltas once: canonical sorted
     multisets per snapshot, then a merge-walk difference between each
     snapshot and its cyclic successor. *)
  let canon l =
    let a = Array.of_list (List.map (fun (u, v) -> (min u v, max u v)) l) in
    Array.sort cmp_edge a;
    a
  in
  let canonical = Array.map canon snapshots in
  let diff old_a new_a =
    let births = ref [] and deaths = ref [] in
    let i = ref 0 and j = ref 0 in
    let no = Array.length old_a and nn = Array.length new_a in
    while !i < no || !j < nn do
      if !i >= no then begin
        births := new_a.(!j) :: !births;
        incr j
      end
      else if !j >= nn then begin
        deaths := old_a.(!i) :: !deaths;
        incr i
      end
      else
        let c = cmp_edge old_a.(!i) new_a.(!j) in
        if c = 0 then begin
          incr i;
          incr j
        end
        else if c < 0 then begin
          deaths := old_a.(!i) :: !deaths;
          incr i
        end
        else begin
          births := new_a.(!j) :: !births;
          incr j
        end
    done;
    (Array.of_list (List.rev !births), Array.of_list (List.rev !deaths))
  in
  let diffs = Array.init k (fun i -> diff canonical.(i) canonical.((i + 1) mod k)) in
  let max_m = Array.fold_left (fun acc a -> max acc (Array.length a)) 1 canonical in
  let idx = ref 0 in
  let stepped = ref false in
  make ~n
    ~reset:(fun _ ->
      idx := 0;
      stepped := false)
    ~step:(fun () ->
      idx := (!idx + 1) mod k;
      stepped := true)
    ~iter_edges:(fun f -> List.iter (fun (u, v) -> f u v) snapshots.(!idx))
    ~deltas:(fun ~birth ~death ->
      !stepped
      && begin
           let births, deaths = diffs.((!idx + k - 1) mod k) in
           Array.iter (fun (u, v) -> birth u v) births;
           Array.iter (fun (u, v) -> death u v) deaths;
           true
         end)
    ~delta_size:(fun () ->
      if not !stepped then 0
      else
        let births, deaths = diffs.((!idx + k - 1) mod k) in
        Array.length births + Array.length deaths)
    ~expected_edges:max_m ()

let filter_edges ~p_keep inner =
  if not (p_keep >= 0. && p_keep <= 1.) then
    invalid_arg "Dynamic.filter_edges: p_keep outside [0, 1]";
  let n = inner.n in
  (* No RNG exists until the first [reset]: enumerating edges before one
     is a contract violation and raises, rather than silently drawing
     from a fixed fallback stream (see dynamic.mli). *)
  let rng = ref None in
  (* The filter decision for an edge must be stable within one snapshot
     (iter_edges may be called several times between steps), so decisions
     are cached per step, keyed by the edge's Pairs index (no tuple
     allocation or polymorphic hashing per query). The cached value
     packs the coin with the edge's multiplicity in the first full
     enumeration of the step — [mult] if kept, [-mult] if dropped —
     which is what lets the delta hook diff two steps' caches without
     consulting the inner model. *)
  let cur = ref (Hashtbl.create 256) in
  let prev = ref (Hashtbl.create 256) in
  let cur_complete = ref false in
  let prev_complete = ref false in
  let keep u v =
    let key = Graph.Pairs.encode n u v in
    match Hashtbl.find_opt !cur key with
    | Some c ->
        if not !cur_complete then Hashtbl.replace !cur key (if c > 0 then c + 1 else c - 1);
        c > 0
    | None ->
        let r =
          match !rng with
          | Some r -> r
          | None -> invalid_arg "Dynamic.filter_edges: snapshot read before first reset"
        in
        let b = Prng.Rng.bernoulli r p_keep in
        Hashtbl.add !cur key (if b then 1 else -1);
        b
  in
  let kept_mult c = if c > 0 then c else 0 in
  make ~n
    ~reset:(fun r ->
      inner.reset (Prng.Rng.split r);
      rng := Some (Prng.Rng.split r);
      Hashtbl.reset !cur;
      Hashtbl.reset !prev;
      cur_complete := false;
      prev_complete := false)
    ~step:(fun () ->
      inner.step ();
      let stale = !prev in
      prev := !cur;
      cur := stale;
      Hashtbl.clear !cur;
      prev_complete := !cur_complete;
      cur_complete := false)
    ~iter_edges:(fun f ->
      inner.iter_edges (fun u v -> if keep u v then f u v);
      cur_complete := true)
      (* Fresh coins every step mean the filtered deltas are not the
         inner deltas: they are the difference between this step's and
         the previous step's keep decisions. Both live in the caches,
         so the hook enumerates the inner snapshot once (drawing this
         step's coins in exactly the enumeration order the plain paths
         use — the coin stream is unchanged) and then diffs the two
         caches; the inner model needs no delta support of its own. It
         declines whenever the previous step was never fully
         enumerated, since then the old decisions are unknowable. *)
    ~deltas:(fun ~birth ~death ->
      !prev_complete
      && begin
           if not !cur_complete then begin
             inner.iter_edges (fun u v -> ignore (keep u v));
             cur_complete := true
           end;
           Hashtbl.iter
             (fun key c ->
               let o =
                 match Hashtbl.find_opt !prev key with Some o -> kept_mult o | None -> 0
               in
               let d = kept_mult c - o in
               if d <> 0 then
                 Graph.Pairs.decode_with n key (fun u v ->
                     if d > 0 then
                       for _ = 1 to d do
                         birth u v
                       done
                     else
                       for _ = 1 to -d do
                         death u v
                       done))
             !cur;
           Hashtbl.iter
             (fun key o ->
               if not (Hashtbl.mem !cur key) then
                 let o = kept_mult o in
                 if o > 0 then
                   Graph.Pairs.decode_with n key (fun u v ->
                       for _ = 1 to o do
                         death u v
                       done))
             !prev;
           true
         end)
    ~expected_edges:
      (int_of_float (ceil (p_keep *. float_of_int (expected_edges inner))))
    ()

let subsample ~every inner =
  if every < 1 then invalid_arg "Dynamic.subsample: every must be >= 1";
  if every = 1 then inner
  else
    (* The inner model's deltas are per sub-step, not per observed
       step, so they are not forwarded. Snapshot reads and the boundary
       hook answer for the current (observed) snapshot. *)
    {
      inner with
      step =
        (fun () ->
          for _ = 1 to every do
            inner.step ()
          done);
      deltas = None;
      delta_size = None;
    }

let union a b =
  if a.n <> b.n then invalid_arg "Dynamic.union: node-count mismatch";
  let deltas =
    match (a.deltas, b.deltas) with
    | Some da, Some db ->
        (* The union snapshot is the multiset sum of the operands (an
           edge present in both is reported twice), so forwarding both
           operands' births and deaths verbatim keeps a multiset
           consumer exact — each operand adds or removes its own copy.
           Both hooks run even if the first declines, so neither
           operand's per-step delta state is left half-consumed; on
           decline the consumer refreshes, which subsumes anything
           already applied. *)
        Some
          (fun ~birth ~death ->
            let ok_a = da ~birth ~death in
            let ok_b = db ~birth ~death in
            ok_a && ok_b)
    | _ -> None
  in
  let delta_size =
    match (a.delta_size, b.delta_size) with
    | Some sa, Some sb -> Some (fun () -> sa () + sb ())
    | _ -> None
  in
  let expected_edges =
    match (a.expected_edges, b.expected_edges) with
    | Some ea, Some eb -> Some (ea + eb)
    | _ -> None
  in
  make ~n:a.n
    ~reset:(fun r ->
      a.reset (Prng.Rng.split r);
      b.reset (Prng.Rng.split r))
    ~step:(fun () ->
      a.step ();
      b.step ())
    ~iter_edges:(fun f ->
      a.iter_edges f;
      b.iter_edges f)
    ?deltas ?delta_size ?expected_edges ()
