type t = {
  n : int;
  l : float;
  r : float;
  xs : float array;
  ys : float array;
  reset_node : Prng.Rng.t -> int -> unit;
  move_node : Prng.Rng.t -> int -> unit;
  mutable node_rngs : Prng.Rng.t array;  (* empty until the first reset *)
  edges : Graph.Edge_buffer.t Lazy.t;  (* boundary-hook floods never enumerate *)
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
    node_rngs = [||];
    edges = lazy (Graph.Edge_buffer.create ~capacity:(4 * n) ());
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
  if Array.length t.node_rngs = 0 then invalid_arg "Geo.step: the model was never reset";
  for i = 0 to t.n - 1 do
    t.move_node t.node_rngs.(i) i
  done;
  t.edges_valid <- false

let refresh_edges t =
  let edges = Lazy.force t.edges in
  if not t.edges_valid then begin
    Graph.Edge_buffer.clear edges;
    (* Enumeration order feeds RNG-coupled consumers (Push coins, edge
       filters), so it is the grid's deterministic sweep order, pinned
       by the golden tests regenerated with the CSR grid. *)
    Space.iter_close_pairs ~scratch:t.grid ~l:t.l ~r:t.r ~xs:t.xs ~ys:t.ys (fun i j ->
        Graph.Edge_buffer.push edges i j);
    t.edges_valid <- true
  end;
  edges

let dynamic t =
  Core.Dynamic.make ~n:t.n
    ~reset:(fun rng -> reset t rng)
    ~step:(fun () -> step t)
    ~iter_edges:(fun f -> Graph.Edge_buffer.iter (refresh_edges t) f)
      (* Sorts by (cell, inside?) into the same grid scratch; the edge
         cache is left as it is. *)
    ~boundary:(fun inside f ->
      Space.iter_boundary ~scratch:t.grid ~l:t.l ~r:t.r ~xs:t.xs ~ys:t.ys ~inside f)
    ()
