type init = Uniform | Corner

let create ?(init = Uniform) ~n ~l ~r ~v ~turn_every () =
  (* With 0 < v <= l a step overshoots a border by at most l, so
     [reflect] bounces at most once; a larger speed would bounce about
     v / 2l times, and from about 2^53 l on (or at v = ∞) forever, as
     2l - x rounds to -x. The [not (_ && _)] form rejects NaN too. *)
  if not (v > 0. && v <= l) then invalid_arg "Direction.create: speed must be in (0, l]";
  if not (turn_every >= 1.) then invalid_arg "Direction.create: turn_every must be >= 1";
  let xs = Array.make n 0. and ys = Array.make n 0. in
  let angle = Array.make n 0. in
  let new_heading rng i = angle.(i) <- Prng.Rng.float rng (2. *. Float.pi) in
  let reset_node rng i =
    (match init with
    | Corner ->
        xs.(i) <- 0.;
        ys.(i) <- 0.
    | Uniform ->
        xs.(i) <- Prng.Rng.float rng l;
        ys.(i) <- Prng.Rng.float rng l);
    new_heading rng i
  in
  (* Reflect a coordinate into [0, l], flipping the matching velocity
     component; at most one bounce per step since v <= l. *)
  let rec reflect x = if x < 0. then reflect (-.x) else if x > l then reflect ((2. *. l) -. x) else x in
  let move_node rng i =
    if Prng.Rng.bernoulli rng (1. /. turn_every) then new_heading rng i;
    let nx = xs.(i) +. (v *. cos angle.(i)) in
    let ny = ys.(i) +. (v *. sin angle.(i)) in
    (* A reflected x means the horizontal velocity flipped sign. *)
    if nx < 0. || nx > l then angle.(i) <- Float.pi -. angle.(i);
    if ny < 0. || ny > l then angle.(i) <- -.angle.(i);
    xs.(i) <- reflect nx;
    ys.(i) <- reflect ny
  in
  Geo.make ~n ~l ~r ~xs ~ys ~reset_node ~move_node

let dynamic ?init ~n ~l ~r ~v ~turn_every () =
  Geo.dynamic (create ?init ~n ~l ~r ~v ~turn_every ())
