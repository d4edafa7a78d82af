let rotating_star ~n =
  if n < 2 then invalid_arg "Adversarial.rotating_star: n must be >= 2";
  let time = ref 0 in
  Core.Dynamic.make ~n
    ~reset:(fun _ -> time := 0)
    ~step:(fun () -> incr time)
    ~iter_edges:(fun f ->
      let centre = (!time + 1) mod n in
      for u = 0 to n - 1 do
        if u <> centre then f centre u
      done)
    ()

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let rotating_matching ~n =
  if n < 2 || not (is_power_of_two n) then
    invalid_arg "Adversarial.rotating_matching: n must be a power of two >= 2";
  let dims =
    let rec count k = if 1 lsl k = n then k else count (k + 1) in
    count 1
  in
  let time = ref 0 in
  Core.Dynamic.make ~n
    ~reset:(fun _ -> time := 0)
    ~step:(fun () -> incr time)
    ~iter_edges:(fun f ->
      let mask = 1 lsl (!time mod dims) in
      for u = 0 to n - 1 do
        let v = u lxor mask in
        if u < v then f u v
      done)
    ()

let random_matching ~rng_hint:() ~n =
  if n < 2 then invalid_arg "Adversarial.random_matching: n must be >= 2";
  let rng = ref (Prng.Rng.of_seed 0) in
  let matching = Array.make n (-1) in
  let rematch () =
    let order = Prng.Rng.perm !rng n in
    Array.fill matching 0 n (-1);
    let i = ref 0 in
    while !i + 1 < n do
      matching.(order.(!i)) <- order.(!i + 1);
      matching.(order.(!i + 1)) <- order.(!i);
      i := !i + 2
    done
  in
  Core.Dynamic.make ~n
    ~reset:(fun r ->
      rng := r;
      rematch ())
    ~step:(fun () -> rematch ())
    ~iter_edges:(fun f -> Array.iteri (fun u v -> if v > u then f u v) matching)
    ()
