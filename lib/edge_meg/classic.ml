type init = Stationary | Empty | Full

(* One engine at every n (DESIGN.md section 11). The pair universe is
   cut into fixed contiguous strips, and each strip owns the complete
   per-range state: its present set, endpoint mirror, birth/death
   buffers, decode-cursor seed and generator. A step runs every strip's
   birth scan, death subsample and birth apply; delta reports and
   enumeration concatenate the strips in index order.

   Below Graph.Storage.offheap_nodes, and without [?parts], one strip
   spans the whole universe and draws from the reset generator itself.
   From there up, or with [?parts], 64 strips each draw from substream
   [strip index] of the reset seed and fan out over
   Exec.Pool.run_tiles in [parts] groups. Strips are never cut by
   worker count or [parts], so results are a function of the reset
   seed alone (test/test_parallel.ml pins both).

   The model also answers plain flooding's one question, which outside
   nodes touch an inside set, by one pass over the strips' endpoint
   mirrors (DESIGN.md section 8). *)

module S = Graph.Sparse_set
module St = Graph.Storage
module A = Bigarray.Array1

(* A strip's present set. One strip indexes the whole universe by
   array (O(n²) memory). 64 strips keep the pair indices of their live
   edges as one ascending run (memory O(live edges)): the birth scan
   visits pairs in ascending order, so one forward pointer answers its
   membership tests, and one merge per step applies the step. Deaths
   walk the endpoint mirror with the array set's draws and
   swap-removes, so the draw streams do not depend on the backing. A
   run at one strip stepped 2.3x slower at n = 128 and 256, and
   1.05-1.07x at n = 1024: its merge moves every live edge each step.
   A [Sorted] strip's set is its [run]. *)
type members = Small of S.t | Sorted

(* An edge as one native int, u above bit 31. Node ids lie below
   Storage.max_nodes = 2^31, so the pair fits OCaml's 63-bit int, and a
   mirror, birth or death slot is one Bigarray cell. *)
let[@inline] pack u v = (u lsl 31) lor v

let[@inline] pack_u e = e lsr 31

let[@inline] pack_v e = e land 0x7FFF_FFFF

(* The pair index of a packed edge (Graph.Pairs.encode, inline). *)
let[@inline] index n e =
  let u = pack_u e in
  (u * n) - (u * (u + 1) / 2) + (pack_v e - u - 1)

type strip = {
  lo : int;  (* pair range [lo, hi) *)
  hi : int;
  u0 : int;  (* decode cursor seeded at [lo]: row, row base, next row base *)
  base0 : int;
  next0 : int;
  present : members;
  mutable run : St.Ix.t;  (* [Sorted]: live pair indices, ascending *)
  mutable spare : St.Ix.t;  (* [Sorted]: the merge target, swapped with [run] *)
  scratch : St.Ix.t;  (* [Sorted]: the deaths' radix sort, see [sort_deaths] *)
  ends : St.Ix.t;  (* endpoint mirror of the strip's dense slots, packed *)
  b_idx : St.Ix.t;  (* births of the current step: pair index, packed edge *)
  b_ends : St.Ix.t;
  d_ends : St.Ix.t;  (* deaths of the current step, packed *)
  (* The raw arrays of the mirror and the step's buffers, re-read after
     each growth.
     The hot loops use Bigarray primitives on them because under
     dune's dev profile (-opaque) a Storage accessor is a real call: at
     2^17 nodes the 64-strip step through the accessors took about a
     third longer. The two birth vectors grow together, so one length
     check covers both. *)
  mutable ends_a : St.Ix.raw;
  mutable bi_a : St.Ix.raw;
  mutable be_a : St.Ix.raw;
  mutable de_a : St.Ix.raw;
  mutable len : int;  (* live edges, the mirror's occupied prefix *)
  mutable n_births : int;
  mutable n_deaths : int;
  mutable rng : Prng.Rng.t;
}

let grow_mirror st cap =
  St.Ix.ensure st.ends cap;
  st.ends_a <- St.Ix.raw st.ends

(* Reset visits only absent indices, so [add]'s membership check is
   skipped. A run is filled from the mirror once the scan ends. *)
let add_present st i u v =
  let pos = st.len in
  if pos = A.dim st.ends_a then grow_mirror st (pos + 1);
  (match st.present with Small s -> S.add_unchecked s i | Sorted -> ());
  A.unsafe_set st.ends_a pos (pack u v);
  st.len <- pos + 1

let push_birth st i u v =
  let k = st.n_births in
  if k = A.dim st.be_a then begin
    St.Ix.ensure st.b_idx (k + 1);
    St.Ix.ensure st.b_ends (k + 1);
    st.bi_a <- St.Ix.raw st.b_idx;
    st.be_a <- St.Ix.raw st.b_ends
  end;
  A.unsafe_set st.bi_a k i;
  A.unsafe_set st.be_a k (pack u v);
  st.n_births <- k + 1

(* Each present edge dies with probability q: a top-down walk over the
   dense slots with geometric skips. The dying edge still sits at
   mirror slot [i]; the survivor swapped into [i] sits at the old last
   slot. The k-th death (from 0) leaves [len0 - 1 - k] members, so that
   slot is counted, not asked of the set. A run's strip walks the
   mirror itself, drawing and swapping as the array set's scan does. *)
let deaths st geo_q q =
  let ends = st.ends_a in
  let len0 = st.len in
  let on_death _ i =
    let k = st.n_deaths in
    if k = A.dim st.de_a then begin
      St.Ix.ensure st.d_ends (k + 1);
      st.de_a <- St.Ix.raw st.d_ends
    end;
    A.unsafe_set st.de_a k (A.unsafe_get ends i);
    st.n_deaths <- k + 1;
    A.unsafe_set ends i (A.unsafe_get ends (len0 - 1 - k))
  in
  (match (st.present, geo_q) with
  | Small s, Some geo -> S.remove_geo_pos s geo st.rng on_death
  | Sorted, Some geo ->
      let r = st.rng in
      let i = ref (len0 - 1 - Prng.Rng.Geo.draw geo r) in
      while !i >= 0 do
        on_death () !i;
        i := !i - 1 - Prng.Rng.Geo.draw geo r
      done
  | present, None ->
      (* No sampler at q = 0, where nothing dies, and at q = 1, where
         every slot dies from the top and nothing is drawn. *)
      if q >= 1. then begin
        for i = len0 - 1 downto 0 do
          on_death () i
        done;
        match present with Small s -> S.clear s | Sorted -> ()
      end);
  st.len <- len0 - st.n_deaths

(* The buffered births join the mirror in one block: one capacity
   check, then straight copies. *)
let apply_births st =
  let nb = st.n_births in
  if nb > 0 then begin
    let pos0 = st.len in
    if pos0 + nb > A.dim st.ends_a then grow_mirror st (pos0 + nb);
    let ends = st.ends_a and be = st.be_a in
    (match st.present with
    | Small s ->
        let bi = st.bi_a in
        for k = 0 to nb - 1 do
          S.add_unchecked s (A.unsafe_get bi k)
        done
    | Sorted -> ());
    for k = 0 to nb - 1 do
      A.unsafe_set ends (pos0 + k) (A.unsafe_get be k)
    done;
    st.len <- pos0 + nb
  end

(* The first slot of [run] from [j] below [len] whose index is not
   below [i]. A function of its own keeps the pointer in a register:
   inlined into the scan, the loop spilled it. *)
let rec advance (run : St.Ix.raw) j len i =
  if j < len && A.unsafe_get run j < i then advance run (j + 1) len i else j

(* The step's deaths as ascending pair indices, in [scratch] cells
   [0, nd): a radix sort, 8 bits a pass, of their offsets in the strip,
   between the halves [0, nd) and [nd, 2 nd), with the digit counts
   after them. [d_ends] keeps the walk's order for [deltas]. A binary
   search per death into the run took about twice as long at 2^17
   nodes. One vector rather than three: each is a heap block per
   strip, and three lifted the large tier's gc.top_heap_words. *)
let sort_deaths st n =
  let nd = st.n_deaths and lo = st.lo in
  St.Ix.ensure st.scratch ((2 * nd) + 256);
  let a = St.Ix.raw st.scratch and count = 2 * nd in
  let passes = ref 1 in
  while (st.hi - lo - 1) lsr (8 * !passes) > 0 do
    incr passes
  done;
  (* An odd number of passes starts in the upper half, so the last
     lands in the lower. *)
  let src = ref (if !passes land 1 = 1 then nd else 0) in
  let de = st.de_a in
  for k = 0 to nd - 1 do
    A.unsafe_set a (!src + k) (index n (A.unsafe_get de k) - lo)
  done;
  for pass = 0 to !passes - 1 do
    let shift = 8 * pass and s = !src in
    let d = nd - s in
    for c = count to count + 255 do
      A.unsafe_set a c 0
    done;
    for k = s to s + nd - 1 do
      let c = count + ((A.unsafe_get a k lsr shift) land 255) in
      A.unsafe_set a c (A.unsafe_get a c + 1)
    done;
    let acc = ref d in
    for c = count to count + 255 do
      let m = A.unsafe_get a c in
      A.unsafe_set a c !acc;
      acc := !acc + m
    done;
    for k = s to s + nd - 1 do
      let x = A.unsafe_get a k in
      let c = count + ((x lsr shift) land 255) in
      let at = A.unsafe_get a c in
      A.unsafe_set a at x;
      A.unsafe_set a c (at + 1)
    done;
    src := d
  done

(* The new run is (run \ deaths) ∪ births, in one linear pass over the
   run, the sorted deaths and the births, whose indices ascend in
   [bi_a]. [len0] is the run's pre-step length. *)
let merge st n len0 =
  let nb = st.n_births and nd = st.n_deaths in
  if nb + nd > 0 then begin
    if nd > 0 then sort_deaths st n;
    let run = St.Ix.raw st.run and ds = St.Ix.raw st.scratch and lo = st.lo in
    St.Ix.ensure st.spare (len0 - nd + nb);
    let out = St.Ix.raw st.spare and bi = st.bi_a in
    let o = ref 0 and j = ref 0 and d = ref 0 in
    for i = 0 to len0 - 1 do
      let x = A.unsafe_get run i in
      if !d < nd && A.unsafe_get ds !d + lo = x then incr d
      else begin
        while !j < nb && A.unsafe_get bi !j < x do
          A.unsafe_set out !o (A.unsafe_get bi !j);
          incr o;
          incr j
        done;
        A.unsafe_set out !o x;
        incr o
      end
    done;
    for k = !j to nb - 1 do
      A.unsafe_set out (!o + k - !j) (A.unsafe_get bi k)
    done;
    let old = st.run in
    st.run <- st.spare;
    st.spare <- old
  end

(* The strip count from offheap_nodes up or with [?parts], and the
   largest [parts]. *)
let big_strips = 64

(* Raw reads and writes of a Storage.Bitset block: under -opaque the
   Bitset accessors are calls, one per endpoint. *)
let[@inline] bit b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_bit b i =
  let k = i lsr 3 in
  Bytes.unsafe_set b k (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (i land 7))))

let make ?(init = Stationary) ?parts ~n ~p ~q () =
  (match parts with
  | Some k when k < 1 || k > big_strips -> invalid_arg "Classic.make: parts must be in 1..64"
  | _ -> ());
  let alpha = Markov.Two_state.stationary_on (Markov.Two_state.make ~p ~q) in
  let strips = if parts = None && n < St.offheap_nodes then 1 else big_strips in
  let parts = Option.value parts ~default:strips in
  let saturated = init = Full || (init = Stationary && alpha >= 1.) in
  if strips > 1 && saturated then
    invalid_arg "Classic.make: a saturated start needs fewer than 2^17 nodes and no ?parts";
  if n > St.max_nodes then invalid_arg "Classic.make: n exceeds Graph.Storage.max_nodes";
  let total = Graph.Pairs.total n in
  let init_prob = match init with Stationary -> alpha | Empty -> 0. | Full -> 1. in
  (* Tabulated geometric samplers, one per scan probability: a skip
     draw becomes two table reads instead of a logarithm. [None] at
     prob = 0 (no scan) and prob = 1 (the exhaustive walk). *)
  let geo prob = if prob > 0. && prob < 1. then Some (Prng.Rng.Geo.make ~p:prob) else None in
  let geo_init = geo init_prob and geo_p = geo p and geo_q = geo q in
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
    let ix () = St.Ix.create 64 in
    let present = if strips = 1 then Small (S.create total) else Sorted in
    let ends = ix () and b_idx = ix () and b_ends = ix () and d_ends = ix () in
    {
      lo;
      hi;
      u0;
      base0;
      next0;
      present;
      run = ix ();
      spare = ix ();
      scratch = ix ();
      ends;
      b_idx;
      b_ends;
      d_ends;
      ends_a = St.Ix.raw ends;
      bi_a = St.Ix.raw b_idx;
      be_a = St.Ix.raw b_ends;
      de_a = St.Ix.raw d_ends;
      len = 0;
      n_births = 0;
      n_deaths = 0;
      rng = Prng.Rng.of_seed 0;
    }
  in
  let ss = Array.init strips mk_strip in
  (* Visit each pair of the strip independently with probability
     [prob] by geometric jumps; at prob = 1 every skip is 0 and draws
     nothing. A monotone row cursor decodes each visited index in O(1).
     Reset adds every visited pair; a step buffers the absent ones as
     births, against the pre-step set: a run's pointer [j] only moves
     forward, as the candidates ascend. Written out rather than
     through a callback: a closure call per event costs as much as the
     membership test. *)
  let scan st ~births prob geo =
    if prob > 0. then begin
      let r = st.rng and hi = st.hi and present = st.present in
      let run = St.Ix.raw st.run in
      let len = st.len and j = ref 0 in
      let idx = ref (st.lo + (match geo with Some g -> Prng.Rng.Geo.draw g r | None -> 0)) in
      let u = ref st.u0 and base = ref st.base0 and next = ref st.next0 in
      while !idx < hi do
        while !idx >= !next do
          incr u;
          base := !next;
          next := !next + (n - 1 - !u)
        done;
        let i = !idx in
        let v = !u + 1 + (i - !base) in
        if not births then add_present st i !u v
        else begin
          let absent =
            match present with
            | Small s -> not (S.mem s i)
            | Sorted ->
                j := advance run !j len i;
                !j = len || A.unsafe_get run !j <> i
          in
          if absent then push_birth st i !u v
        end;
        idx := i + 1 + (match geo with Some g -> Prng.Rng.Geo.draw g r | None -> 0)
      done
    end
  in
  (* The reset scan appends in ascending order, so a run is the
     mirror's indices in order. *)
  let strip_reset st =
    st.len <- 0;
    st.n_births <- 0;
    st.n_deaths <- 0;
    (match st.present with Small s -> S.clear s | Sorted -> ());
    scan st ~births:false init_prob geo_init;
    match st.present with
    | Small _ -> ()
    | Sorted ->
        St.Ix.ensure st.run st.len;
        let run = St.Ix.raw st.run and ends = st.ends_a in
        for k = 0 to st.len - 1 do
          A.unsafe_set run k (index n (A.unsafe_get ends k))
        done
  in
  (* Birth hits are collected against the pre-step edge set before
     deaths apply, so an edge that dies this step cannot also be born. *)
  let strip_step st =
    let len0 = st.len in
    st.n_births <- 0;
    st.n_deaths <- 0;
    scan st ~births:true p geo_p;
    deaths st geo_q q;
    apply_births st;
    match st.present with Small _ -> () | Sorted -> merge st n len0
  in
  (* One strip runs on the caller, not through run_tiles, so the
     exec.tile_plans and exec.tiles counters count only the 64-strip
     fan-out. *)
  let each f =
    if strips = 1 then f ss.(0)
    else
      Exec.Pool.run_tiles parts (fun j ->
          for s = j * strips / parts to ((j + 1) * strips / parts) - 1 do
            f ss.(s)
          done)
  in
  let deltas_valid = ref false in
  let reset r =
    deltas_valid := false;
    (* Substreams are indexed by strip and derived before any fan-out. *)
    if strips = 1 then ss.(0).rng <- r
    else Array.iteri (fun s st -> st.rng <- Prng.Rng.substream r s) ss;
    each strip_reset
  in
  let step () =
    each strip_step;
    deltas_valid := true
  in
  let iter_edges f =
    for s = 0 to strips - 1 do
      let st = ss.(s) in
      let ends = st.ends_a in
      for i = 0 to st.len - 1 do
        let e = A.unsafe_get ends i in
        f (pack_u e) (pack_v e)
      done
    done
  in
  let deltas ~birth ~death =
    !deltas_valid
    && begin
         for s = 0 to strips - 1 do
           let st = ss.(s) in
           let be = st.be_a and de = st.de_a in
           for k = 0 to st.n_births - 1 do
             let e = A.unsafe_get be k in
             birth (pack_u e) (pack_v e)
           done;
           for k = 0 to st.n_deaths - 1 do
             let e = A.unsafe_get de k in
             death (pack_u e) (pack_v e)
           done
         done;
         true
       end
  in
  let delta_size () =
    if !deltas_valid then Array.fold_left (fun acc st -> acc + st.n_births + st.n_deaths) 0 ss
    else 0
  in
  (* Same walk as [iter_edges]. An edge with exactly one endpoint
     inside reports the other, once per call through [seen]: created on
     the first call, so [make] allocates nothing O(n) for it. No delta
     state is touched, so a [deltas] report stays valid. *)
  let seen = lazy (St.Bitset.create n) in
  let boundary inside f =
    if St.Bitset.length inside <> n then
      invalid_arg "Classic.boundary: inside set length mismatch";
    let seen = Lazy.force seen in
    St.Bitset.clear_all seen;
    let ins = St.Bitset.bits inside and out = St.Bitset.bits seen in
    let scanned = ref 0 in
    for s = 0 to strips - 1 do
      let st = ss.(s) in
      let ends = st.ends_a in
      let len = st.len in
      for i = 0 to len - 1 do
        let e = A.unsafe_get ends i in
        let u = pack_u e and v = pack_v e in
        let iu = bit ins u in
        if iu <> bit ins v then begin
          let w = if iu then v else u in
          if not (bit out w) then begin
            set_bit out w;
            f w
          end
        end
      done;
      scanned := !scanned + len
    done;
    !scanned
  in
  let expected_edges =
    if init = Full then total else int_of_float (ceil (alpha *. float_of_int total))
  in
  Core.Dynamic.make ~deltas ~delta_size ~boundary ~expected_edges ~n ~reset ~step ~iter_edges ()

let params ~p ~q = Markov.Two_state.make ~p ~q

let expected_stationary_edges ~n ~p ~q =
  let chain = Markov.Two_state.make ~p ~q in
  Markov.Two_state.stationary_on chain *. float_of_int (Graph.Pairs.total n)
