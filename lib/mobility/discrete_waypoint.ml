type t = {
  m : int;
  connect : int -> int -> bool;
  space : Node_meg.Model.space;
}

(* State encoding: (current point, destination point) with points
   row-major p = x * m + y; state = current * m^2 + dest. *)

let point_coords m p = (p / m, p mod m)

let state_position t s =
  let current = s / (t.m * t.m) in
  point_coords t.m current

let sign v = compare v 0

let build ~m ~r =
  if m < 2 || m > 10 then invalid_arg "Discrete_waypoint.build: m must be in [2, 10]";
  if Float.is_nan r || r < 0. then
    invalid_arg "Discrete_waypoint.build: radius must be a non-negative number";
  let points = m * m in
  let n_states = points * points in
  let encode current dest = (current * points) + dest in
  let rows =
    Array.init n_states (fun s ->
        let current = s / points and dest = s mod points in
        if current = dest then
          (* Arrived: fresh uniform destination, position unchanged.
             (Destination may equal the current point, giving a one-step
             rest — harmless and it keeps the chain aperiodic.) *)
          Array.init points (fun d -> (encode current d, 1.))
        else begin
          (* King-move one step toward the destination: the discrete
             straight line. *)
          let cx, cy = point_coords m current and dx, dy = point_coords m dest in
          let nx = cx + sign (dx - cx) and ny = cy + sign (dy - cy) in
          [| (encode ((nx * m) + ny) dest, 1.) |]
        end)
  in
  let chain = Markov.Chain.of_rows rows in
  (* Connection depends on the two current points only: tabulate it
     over point pairs once, so the |S|^2 table fill is one lookup per
     state pair. *)
  let r2 = r *. r in
  let close =
    Bytes.init (points * points) (fun i ->
        let x1, y1 = point_coords m (i / points) and x2, y2 = point_coords m (i mod points) in
        let fx = float_of_int (x1 - x2) and fy = float_of_int (y1 - y2) in
        if (fx *. fx) +. (fy *. fy) <= r2 then '\001' else '\000')
  in
  let connect s1 s2 = Bytes.get close (((s1 / points) * points) + (s2 / points)) = '\001' in
  { m; connect; space = Node_meg.Model.space ~chain ~connect }

let m t = t.m

let chain t = Node_meg.Model.chain t.space

let n_states t = Markov.Chain.n_states (chain t)

let connect t = t.connect

let stationary_position_distribution t =
  let points = t.m * t.m in
  let pi = Node_meg.Model.stationary t.space in
  let positional = Array.make points 0. in
  Array.iteri
    (fun s mass ->
      let current = s / points in
      positional.(current) <- positional.(current) +. mass)
    pi;
  positional

let p_nm t = Node_meg.Model.p_nm t.space

let eta t = Node_meg.Model.eta t.space

let corollary4_eta_bound t =
  (* Extract delta and lambda exactly from the positional distribution:
     vol(R) = m^2 grid cells of unit area; F(point) = P(point).
     delta = max F * vol; B = points with F >= 1/(delta*vol);
     lambda = |B| / vol. (The B_r shrinkage is immaterial at these
     radii and grid sizes; documented in DESIGN.) *)
  let positional = stationary_position_distribution t in
  let vol = float_of_int (Array.length positional) in
  let max_f = Array.fold_left Float.max 0. positional in
  let delta = max_f *. vol in
  let threshold = 1. /. (delta *. vol) in
  let good =
    Array.fold_left (fun acc f -> if f >= threshold then acc + 1 else acc) 0 positional
  in
  let lambda = float_of_int good /. vol in
  (delta ** 6.) /. (lambda ** 2.)

let dynamic ?init ~n t = Node_meg.Model.make ?init ~n t.space
