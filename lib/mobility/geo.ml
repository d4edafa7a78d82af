type t = {
  n : int;
  l : float;
  r : float;
  xs : float array;
  ys : float array;
  reset_node : Prng.Rng.t -> int -> unit;
  move_node : Prng.Rng.t -> int -> unit;
  mutable node_rngs : Prng.Rng.t array;
  edges : Graph.Edge_buffer.t;
  grid : Space.scratch;
  mutable edges_valid : bool;
}

let make ~n ~l ~r ~xs ~ys ~reset_node ~move_node =
  if n < 1 then invalid_arg "Geo.make: n must be >= 1";
  if Array.length xs <> n || Array.length ys <> n then
    invalid_arg "Geo.make: position array length mismatch";
  if not (l > 0. && Float.is_finite l) then invalid_arg "Geo.make: l must be finite and > 0";
  if not (r >= 0.) then invalid_arg "Geo.make: r must be >= 0";
  {
    n;
    l;
    r;
    xs;
    ys;
    reset_node;
    move_node;
    node_rngs = Array.init n (fun i -> Prng.Rng.of_seed i);
    edges = Graph.Edge_buffer.create ~capacity:(4 * n) ();
    grid = Space.scratch ();
    edges_valid = false;
  }

let n t = t.n

let l t = t.l

let r t = t.r

let position t i = (t.xs.(i), t.ys.(i))

let positions t = Array.init t.n (fun i -> (t.xs.(i), t.ys.(i)))

let reset t rng =
  t.node_rngs <- Array.init t.n (fun i -> Prng.Rng.substream rng i);
  for i = 0 to t.n - 1 do
    t.reset_node t.node_rngs.(i) i
  done;
  t.edges_valid <- false

let step t =
  for i = 0 to t.n - 1 do
    t.move_node t.node_rngs.(i) i
  done;
  t.edges_valid <- false

let refresh_edges t =
  if not t.edges_valid then begin
    Graph.Edge_buffer.clear t.edges;
    (* Enumeration order feeds RNG-coupled consumers (Push coins, edge
       filters), so it is the grid's deterministic sweep order, pinned
       by the golden tests regenerated with the CSR grid. *)
    Space.iter_close_pairs ~scratch:t.grid ~l:t.l ~r:t.r ~xs:t.xs ~ys:t.ys (fun i j ->
        Graph.Edge_buffer.push t.edges i j);
    t.edges_valid <- true
  end

let dynamic t =
  Core.Dynamic.make ~n:t.n
    ~reset:(fun rng -> reset t rng)
    ~step:(fun () -> step t)
    ~iter_edges:(fun f ->
      refresh_edges t;
      Graph.Edge_buffer.iter t.edges f)
    ~fill_edges:(fun buf ->
      refresh_edges t;
      Graph.Edge_buffer.append t.edges ~into:buf)
      (* Sorts by (cell, inside?) into the same grid scratch; the edge
         cache is left as it is. *)
    ~boundary:(fun inside f ->
      Space.iter_boundary ~scratch:t.grid ~l:t.l ~r:t.r ~xs:t.xs ~ys:t.ys ~inside f)
    ()
