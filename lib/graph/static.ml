type t = {
  n : int;
  offsets : int array;   (* length n+1 *)
  targets : int array;   (* concatenated sorted neighbour lists *)
}

let of_buffer ~n buf =
  if n < 0 then invalid_arg "Static.of_buffer: negative n";
  Edge_buffer.iter buf (fun u v ->
      if u = v then invalid_arg "Static.of_buffer: self-loop";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Static.of_buffer: endpoint out of range");
  Edge_buffer.sort_dedup buf;
  let e = Edge_buffer.length buf in
  let deg = Array.make n 0 in
  for i = 0 to e - 1 do
    deg.(Edge_buffer.src buf i) <- deg.(Edge_buffer.src buf i) + 1;
    deg.(Edge_buffer.dst buf i) <- deg.(Edge_buffer.dst buf i) + 1
  done;
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + deg.(i)
  done;
  let targets = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  for i = 0 to e - 1 do
    let u = Edge_buffer.src buf i and v = Edge_buffer.dst buf i in
    targets.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    targets.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  (* Rows come out sorted without a per-row pass: row w first receives
     its partners u < w, from edges (u, w) in ascending u, then its
     partners v > w, from edges (w, v) in ascending v — the buffer's
     lexicographic order sorts every adjacency slice. *)
  { n; offsets; targets }

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Static.of_edge_array: negative n";
  Array.iter
    (fun (u, v) ->
      if u = v then invalid_arg "Static.of_edge_array: self-loop";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Static.of_edge_array: endpoint out of range")
    edges;
  let buf = Edge_buffer.create ~capacity:(max 1 (Array.length edges)) () in
  Array.iter (fun (u, v) -> Edge_buffer.push buf u v) edges;
  of_buffer ~n buf

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let n g = g.n

let m g = Array.length g.targets / 2

let degree g u = g.offsets.(u + 1) - g.offsets.(u)

let neighbors g u = Array.sub g.targets g.offsets.(u) (degree g u)

let mem_edge g u v =
  let lo = ref g.offsets.(u) and hi = ref (g.offsets.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.targets.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_neighbors g u f =
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.targets.(i)
  done

let fold_neighbors g u ~init ~f =
  let acc = ref init in
  iter_neighbors g u (fun v -> acc := f !acc v);
  !acc

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_neighbors g u (fun v -> if u < v then f u v)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    if degree g u > !best then best := degree g u
  done;
  !best

let min_degree g =
  if g.n = 0 then 0
  else begin
    let best = ref max_int in
    for u = 0 to g.n - 1 do
      if degree g u < !best then best := degree g u
    done;
    !best
  end

let degree_regularity g =
  if g.n = 0 then nan
  else begin
    let mn = min_degree g in
    if mn = 0 then infinity else float_of_int (max_degree g) /. float_of_int mn
  end

let is_symmetric g =
  let ok = ref true in
  for u = 0 to g.n - 1 do
    iter_neighbors g u (fun v -> if not (mem_edge g v u) then ok := false)
  done;
  !ok
