(* All rows packed into one int32 Bigarray bump arena, with per-node
   degree, offset and capacity vectors beside it. At 10^6 nodes that is
   four flat off-heap blocks instead of 10^6 heap arrays for every GC
   to scan. A row that outgrows its capacity relocates to the end of
   the arena with doubled capacity (at least 8); because capacities
   double, total arena use is bounded by ~4x the peak entry count.
   [clear] keeps offsets and capacities, so rebuild cycles reuse the
   storage.

   Every cell access is a Bigarray primitive on the record's own raw
   arrays. Under dune's default dev profile every module is compiled
   with -opaque, so a Storage.I32 accessor called from here would be a
   real function call per cell: a row append measured 27-29 ns through
   the accessors against 9-10 ns on the primitives (n = 128, DESIGN.md
   section 9). *)

type raw = Storage.I32.raw

type t = {
  n : int;
  deg : raw;  (* the per-node vectors never grow *)
  off : raw;
  cap : raw;
  arena : Storage.I32.t;
  mutable data : raw;  (* [Storage.I32.raw arena], re-read after each growth *)
  mutable used : int;  (* arena cells handed out to rows *)
  mutable entries : int;
}

type view = { v_deg : raw; v_off : raw; v_data : raw }

let[@inline] get (a : raw) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let[@inline] set (a : raw) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

let create ~n =
  if n < 0 then invalid_arg "Mutable_adj.create: negative n";
  if n > Storage.max_nodes then invalid_arg "Mutable_adj.create: n exceeds the int32 id range";
  let vector () = Storage.I32.raw (Storage.I32.create (max 1 n)) in
  let arena = Storage.I32.create 1024 in
  {
    n;
    deg = vector ();
    off = vector ();
    cap = vector ();
    arena;
    data = Storage.I32.raw arena;
    used = 0;
    entries = 0;
  }

let n t = t.n

let degree t u = Int32.to_int (Bigarray.Array1.get t.deg u)

let entries t = t.entries

let edge_count t = t.entries / 2

let clear t =
  Bigarray.Array1.fill t.deg 0l;
  t.entries <- 0

(* Append [v] to [u]'s row. A full row moves to the end of the arena;
   its old slots become a permanent (bounded, see the header) hole. *)
let push t u v =
  let d = get t.deg u in
  if d = get t.cap u then begin
    let ncap = max 8 (2 * d) in
    Storage.I32.ensure t.arena (t.used + ncap);
    let data = Storage.I32.raw t.arena in
    t.data <- data;
    let off = get t.off u in
    for i = 0 to d - 1 do
      set data (t.used + i) (get data (off + i))
    done;
    set t.off u t.used;
    set t.cap u ncap;
    t.used <- t.used + ncap
  end;
  set t.data (get t.off u + d) v;
  set t.deg u (d + 1)

let add t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || u = v then invalid_arg "Mutable_adj.add";
  push t u v;
  push t v u;
  t.entries <- t.entries + 2

(* Swap-remove of one copy of [v] from [u]'s row. A linear scan, not a
   position index: positions of the same (u, v) entry in the two
   endpoint rows differ and edges may occur with multiplicity (union
   double-reports), so an O(1) index would need per-copy bookkeeping
   that costs more than scanning rows whose expected degree is small in
   every hot model. See DESIGN.md section 8. *)
let remove_row t u v =
  let data = t.data in
  let d = get t.deg u in
  let off = get t.off u in
  let i = ref off in
  while !i < off + d && get data !i <> v do
    incr i
  done;
  if !i >= off + d then invalid_arg "Mutable_adj.remove: edge not present";
  set data !i (get data (off + d - 1));
  set t.deg u (d - 1)

let remove t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n then invalid_arg "Mutable_adj.remove";
  remove_row t u v;
  remove_row t v u;
  t.entries <- t.entries - 2

let view t = { v_deg = t.deg; v_off = t.off; v_data = t.data }

let unsafe_nth t u i = get t.data (get t.off u + i)

let neighbor t u i =
  if i < 0 || i >= degree t u then invalid_arg "Mutable_adj.neighbor: index out of range";
  unsafe_nth t u i

let iter_edges t f =
  for u = 0 to t.n - 1 do
    let off = get t.off u in
    for i = off to off + get t.deg u - 1 do
      let v = get t.data i in
      if u < v then f u v
    done
  done
