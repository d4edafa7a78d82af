type t = {
  mutable srcs : int array;
  mutable dsts : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  { srcs = Array.make capacity 0; dsts = Array.make capacity 0; len = 0 }

let length b = b.len

let capacity b = Array.length b.srcs

let clear b = b.len <- 0

let grow b =
  let cap = Array.length b.srcs in
  let srcs = Array.make (2 * cap) 0 and dsts = Array.make (2 * cap) 0 in
  Array.blit b.srcs 0 srcs 0 b.len;
  Array.blit b.dsts 0 dsts 0 b.len;
  b.srcs <- srcs;
  b.dsts <- dsts

let push b u v =
  if b.len = Array.length b.srcs then grow b;
  Array.unsafe_set b.srcs b.len u;
  Array.unsafe_set b.dsts b.len v;
  b.len <- b.len + 1

let src b i = Array.unsafe_get b.srcs i

let dst b i = Array.unsafe_get b.dsts i

let iter b f =
  for i = 0 to b.len - 1 do
    f (Array.unsafe_get b.srcs i) (Array.unsafe_get b.dsts i)
  done

let swap b i j =
  let su = b.srcs.(i) and du = b.dsts.(i) in
  b.srcs.(i) <- b.srcs.(j);
  b.dsts.(i) <- b.dsts.(j);
  b.srcs.(j) <- su;
  b.dsts.(j) <- du

(* In-place quicksort over the parallel arrays, lexicographic on
   (src, dst): median-of-three pivot, Hoare partition, insertion sort
   below a cutoff. No index permutation or pair boxing is ever built. *)

let less b i j =
  let si = b.srcs.(i) and sj = b.srcs.(j) in
  si < sj || (si = sj && b.dsts.(i) < b.dsts.(j))

let insertion_sort b lo hi =
  for i = lo + 1 to hi do
    let s = b.srcs.(i) and d = b.dsts.(i) in
    let j = ref (i - 1) in
    while !j >= lo && (b.srcs.(!j) > s || (b.srcs.(!j) = s && b.dsts.(!j) > d)) do
      b.srcs.(!j + 1) <- b.srcs.(!j);
      b.dsts.(!j + 1) <- b.dsts.(!j);
      decr j
    done;
    b.srcs.(!j + 1) <- s;
    b.dsts.(!j + 1) <- d
  done

let rec quicksort b lo hi =
  if hi - lo < 16 then insertion_sort b lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if less b mid lo then swap b mid lo;
    if less b hi lo then swap b hi lo;
    if less b hi mid then swap b hi mid;
    let ps = b.srcs.(mid) and pd = b.dsts.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while
        (let s = b.srcs.(!i) in
         s < ps || (s = ps && b.dsts.(!i) < pd))
      do
        incr i
      done;
      while
        (let s = b.srcs.(!j) in
         s > ps || (s = ps && b.dsts.(!j) > pd))
      do
        decr j
      done;
      if !i <= !j then begin
        swap b !i !j;
        incr i;
        decr j
      end
    done;
    quicksort b lo !j;
    quicksort b !i hi
  end

let sort_dedup b =
  for i = 0 to b.len - 1 do
    let u = b.srcs.(i) and v = b.dsts.(i) in
    if v < u then begin
      b.srcs.(i) <- v;
      b.dsts.(i) <- u
    end
  done;
  quicksort b 0 (b.len - 1);
  if b.len > 1 then begin
    let w = ref 1 in
    for i = 1 to b.len - 1 do
      if b.srcs.(i) <> b.srcs.(!w - 1) || b.dsts.(i) <> b.dsts.(!w - 1) then begin
        b.srcs.(!w) <- b.srcs.(i);
        b.dsts.(!w) <- b.dsts.(i);
        incr w
      end
    done;
    b.len <- !w
  end

let to_list b =
  let acc = ref [] in
  for i = b.len - 1 downto 0 do
    acc := (b.srcs.(i), b.dsts.(i)) :: !acc
  done;
  !acc
