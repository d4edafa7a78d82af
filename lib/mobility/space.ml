module Bitset = Graph.Storage.Bitset

let clamp l x = if x < 0. then 0. else if x > l then l else x

let dist2 x1 y1 x2 y2 =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  (dx *. dx) +. (dy *. dy)

(* Reusable storage for the counting-sort grid: key start offsets
   (CSR row pointers), a fill cursor per key, each point's key and the
   points ordered by key. A key is a cell, or a (cell, inside?) pair
   for the boundary sweep. Grown on demand, never shrunk, so a
   mobility process doing one sweep per step allocates nothing in
   steady state. *)
type scratch = {
  mutable start : int array;   (* nkeys + 1 prefix offsets into order *)
  mutable cursor : int array;  (* nkeys fill cursors *)
  mutable key : int array;     (* key of point i *)
  mutable order : int array;   (* point ids, grouped by key, ascending within *)
  mutable xo : float array;    (* coordinates of order.(s), contiguous per key *)
  mutable yo : float array;
}

let scratch () =
  { start = [||]; cursor = [||]; key = [||]; order = [||]; xo = [||]; yo = [||] }

let ensure a len = if Array.length a < len then Array.make len 0 else a
let ensure_f a len = if Array.length a < len then Array.make len 0. else a

(* Both sweeps accept the same inputs; written as [not (r >= 0.)] so a
   NaN radius is rejected too. *)
let check name ~r ~xs ~ys =
  if Array.length ys <> Array.length xs then invalid_arg (name ^ ": length mismatch");
  if not (r >= 0.) then invalid_arg (name ^ ": radius must be >= 0")

(* Counting sort by key into the grid both sweeps share, returning
   the grid side. Cells are at least [r] wide, so a pair within [r]
   lies in the same or adjacent cells, and at least [l / 1024] wide, so
   the grid stays bounded for tiny radii. Count (offset by one) ->
   prefix sum -> ascending fill, so each key's slice of [order] lists
   its points in increasing id. The key is the point's row-major cell
   c, or, given [inside], 2c for a point in the set and 2c + 1 for one
   outside it, so a cell's slice splits into its inside points then its
   outside points. Coordinates are scattered alongside the ids so the
   candidate loops stream two contiguous unboxed float arrays instead
   of gathering through [order]. *)
let bucket sc ~l ~r ?inside ~xs ~ys () =
  let cell = Float.max r (Float.max (l /. 1024.) 1e-9) in
  let side = max 1 (int_of_float (ceil (l /. cell))) in
  let n = Array.length xs in
  let nkeys = (match inside with None -> 1 | Some _ -> 2) * side * side in
  sc.start <- ensure sc.start (nkeys + 1);
  sc.cursor <- ensure sc.cursor nkeys;
  sc.key <- ensure sc.key n;
  sc.order <- ensure sc.order n;
  sc.xo <- ensure_f sc.xo n;
  sc.yo <- ensure_f sc.yo n;
  let start = sc.start and cursor = sc.cursor and key = sc.key and order = sc.order in
  let xo = sc.xo and yo = sc.yo in
  Array.fill start 0 (nkeys + 1) 0;
  for i = 0 to n - 1 do
    let cx = int_of_float (Array.unsafe_get xs i /. cell) in
    let cx = if cx >= side then side - 1 else cx in
    let cy = int_of_float (Array.unsafe_get ys i /. cell) in
    let cy = if cy >= side then side - 1 else cy in
    let c = (cx * side) + cy in
    let k =
      match inside with
      | None -> c
      | Some set -> if Bitset.unsafe_get set i then 2 * c else (2 * c) + 1
    in
    Array.unsafe_set key i k;
    start.(k + 1) <- start.(k + 1) + 1
  done;
  for k = 1 to nkeys do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  Array.blit start 0 cursor 0 nkeys;
  for i = 0 to n - 1 do
    let k = Array.unsafe_get key i in
    let slot = Array.unsafe_get cursor k in
    Array.unsafe_set order slot i;
    Array.unsafe_set xo slot (Array.unsafe_get xs i);
    Array.unsafe_set yo slot (Array.unsafe_get ys i);
    Array.unsafe_set cursor k (slot + 1)
  done;
  side

let iter_close_pairs ?scratch:sc ~l ~r ~xs ~ys f =
  check "Space.iter_close_pairs" ~r ~xs ~ys;
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let side = bucket sc ~l ~r ~xs ~ys () in
  let start = sc.start and order = sc.order and xo = sc.xo and yo = sc.yo in
  let r2 = r *. r in
  (* Emit each unordered pair once: within-cell pairs over the flat
     slice, then half the 8-neighbourhood so each cell pair is scanned
     from exactly one side. The outer point's coordinates are hoisted
     out of the inner loop, and the i/j ordering is an explicit branch
     (polymorphic min/max would cost a C call per emitted pair). *)
  for c = 0 to (side * side) - 1 do
    let s0 = Array.unsafe_get start c and e0 = Array.unsafe_get start (c + 1) in
    if e0 > s0 then begin
      for a = s0 to e0 - 1 do
        let xa = Array.unsafe_get xo a and ya = Array.unsafe_get yo a in
        let i = Array.unsafe_get order a in
        for b = a + 1 to e0 - 1 do
          let dx = xa -. Array.unsafe_get xo b and dy = ya -. Array.unsafe_get yo b in
          (* within a cell the slice is ascending, so i < j *)
          if (dx *. dx) +. (dy *. dy) <= r2 then f i (Array.unsafe_get order b)
        done
      done;
      let cx = c / side and cy = c mod side in
      let cross dx dy =
        let cx' = cx + dx and cy' = cy + dy in
        if cx' >= 0 && cx' < side && cy' >= 0 && cy' < side then begin
          let c' = (cx' * side) + cy' in
          let s1 = Array.unsafe_get start c' and e1 = Array.unsafe_get start (c' + 1) in
          for a = s0 to e0 - 1 do
            let xa = Array.unsafe_get xo a and ya = Array.unsafe_get yo a in
            let i = Array.unsafe_get order a in
            for b = s1 to e1 - 1 do
              let dx = xa -. Array.unsafe_get xo b and dy = ya -. Array.unsafe_get yo b in
              if (dx *. dx) +. (dy *. dy) <= r2 then begin
                let j = Array.unsafe_get order b in
                if i < j then f i j else f j i
              end
            done
          done
        end
      in
      cross 1 (-1);
      cross 1 0;
      cross 1 1;
      cross 0 1
    end
  done

let iter_boundary ?scratch:sc ~l ~r ~xs ~ys ~inside f =
  check "Space.iter_boundary" ~r ~xs ~ys;
  let n = Array.length xs in
  if Bitset.length inside <> n then invalid_arg "Space.iter_boundary: inside set length mismatch";
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let side = bucket sc ~l ~r ~inside ~xs ~ys () in
  let start = sc.start and order = sc.order and xo = sc.xo and yo = sc.yo in
  let r2 = r *. r in
  let tested = ref 0 in
  (* Cell c's inside points are [start.(2c), start.(2c+1)), its outside
     points [start.(2c+1), start.(2c+2)). An outside point can only
     have an inside neighbour in its 3×3 block of cells, so a cell
     whose block holds no inside point is skipped outright, and each
     remaining outside point stops at its first inside point within
     [r]. Every outside point is visited once, so each is reported at
     most once. *)
  for cx = 0 to side - 1 do
    let x0 = if cx > 0 then cx - 1 else 0 and x1 = if cx < side - 1 then cx + 1 else cx in
    for cy = 0 to side - 1 do
      let c = (cx * side) + cy in
      let o0 = Array.unsafe_get start ((2 * c) + 1) and o1 = Array.unsafe_get start ((2 * c) + 2) in
      if o1 > o0 then begin
        let y0 = if cy > 0 then cy - 1 else 0 and y1 = if cy < side - 1 then cy + 1 else cy in
        let any = ref false in
        for bx = x0 to x1 do
          for by = y0 to y1 do
            let k = 2 * ((bx * side) + by) in
            if Array.unsafe_get start (k + 1) > Array.unsafe_get start k then any := true
          done
        done;
        if !any then
          for a = o0 to o1 - 1 do
            let xa = Array.unsafe_get xo a and ya = Array.unsafe_get yo a in
            let hit = ref false in
            let bx = ref x0 in
            while (not !hit) && !bx <= x1 do
              let by = ref y0 in
              while (not !hit) && !by <= y1 do
                let k = 2 * ((!bx * side) + !by) in
                let b0 = Array.unsafe_get start k in
                let b = ref b0 and e = Array.unsafe_get start (k + 1) in
                while (not !hit) && !b < e do
                  let dx = xa -. Array.unsafe_get xo !b and dy = ya -. Array.unsafe_get yo !b in
                  if (dx *. dx) +. (dy *. dy) <= r2 then hit := true;
                  incr b
                done;
                tested := !tested + (!b - b0);
                incr by
              done;
              incr bx
            done;
            if !hit then f (Array.unsafe_get order a)
          done
      end
    done
  done;
  !tested

let cell_index ~l ~bins x y =
  let at v =
    let i = int_of_float (float_of_int bins *. v /. l) in
    if i < 0 then 0 else if i >= bins then bins - 1 else i
  in
  (at x * bins) + at y
