type t = {
  dense : int array;  (* the members, compact in [0, len) *)
  pos : int array;    (* pos.(x) = index of x in dense, if x is a member *)
  mutable len : int;
  universe : int;
}

(* Validity of a membership claim is [pos.(x) < len && dense.(pos.(x)) = x],
   so [clear] is O(1) and stale [pos] entries are harmless. *)

let create universe =
  if universe < 0 then invalid_arg "Sparse_set.create: negative universe";
  { dense = Array.make (max 1 universe) 0; pos = Array.make (max 1 universe) 0; len = 0; universe }

let universe t = t.universe

let length t = t.len

let mem t x =
  let p = Array.unsafe_get t.pos x in
  p < t.len && Array.unsafe_get t.dense p = x

let add t x =
  if not (mem t x) then begin
    Array.unsafe_set t.dense t.len x;
    Array.unsafe_set t.pos x t.len;
    t.len <- t.len + 1
  end

(* For callers that have already established [not (mem t x)] — e.g. a
   birth scan that only reports absent elements — skipping the
   membership re-check saves three dependent loads per insertion. *)
let add_unchecked t x =
  Array.unsafe_set t.dense t.len x;
  Array.unsafe_set t.pos x t.len;
  t.len <- t.len + 1

let remove t x =
  if mem t x then begin
    let p = Array.unsafe_get t.pos x in
    let last = t.len - 1 in
    let y = Array.unsafe_get t.dense last in
    Array.unsafe_set t.dense p y;
    Array.unsafe_set t.pos y p;
    t.len <- last
  end

let clear t = t.len <- 0

let fill_all t =
  for i = 0 to t.universe - 1 do
    Array.unsafe_set t.dense i i;
    Array.unsafe_set t.pos i i
  done;
  t.len <- t.universe

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Sparse_set.get: index out of range";
  t.dense.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.dense i)
  done

let find t x =
  if not (mem t x) then invalid_arg "Sparse_set.find: not a member";
  Array.unsafe_get t.pos x

let remove_at t i =
  let x = Array.unsafe_get t.dense i in
  let last = t.len - 1 in
  let y = Array.unsafe_get t.dense last in
  Array.unsafe_set t.dense i y;
  Array.unsafe_set t.pos y i;
  t.len <- last;
  x

(* Top-down geometric skips: a visited slot's element dies; the
   survivor swapped in from the (already passed) end is never
   revisited, so every element gets exactly one Bernoulli(p) fate.
   [f x i] runs after the swap-remove, so a payload mirror can read
   the dying element's slot [i] (not yet overwritten on its side) and
   then copy slot [length t] — the swapped-in survivor — over it. *)
let remove_geo_pos t geo rng f =
  let i = ref (t.len - 1 - Prng.Rng.Geo.draw geo rng) in
  while !i >= 0 do
    let x = remove_at t !i in
    f x !i;
    i := !i - 1 - Prng.Rng.Geo.draw geo rng
  done
