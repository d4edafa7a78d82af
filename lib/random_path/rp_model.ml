type init = Stationary | Point of int

let stationary_sampler family =
  (* Path h carries ℓ(h) - 1 states. *)
  lazy
    (Prng.Discrete.of_weights
       (Array.init (Family.n_paths family) (fun h ->
            float_of_int (Family.length family h - 1))))

let make_observable ?(init = Stationary) ?(hold = 0.) ~n ~family () =
  if not (hold >= 0. && hold < 1.) then invalid_arg "Rp_model: hold outside [0, 1)";
  let n_points = Graph.Static.n (Family.graph family) in
  let path = Array.make n 0 in
  let pos = Array.make n 1 in
  let rng = ref (Prng.Rng.of_seed 0) in
  let sampler = stationary_sampler family in
  let reset r =
    rng := r;
    for i = 0 to n - 1 do
      match init with
      | Point p ->
          path.(i) <- Family.sample_path_from family !rng p;
          pos.(i) <- 1
      | Stationary ->
          let h = Prng.Discrete.draw (Lazy.force sampler) !rng in
          path.(i) <- h;
          pos.(i) <- 1 + Prng.Rng.int !rng (Family.length family h - 1)
    done
  in
  let step () =
    for i = 0 to n - 1 do
      if hold = 0. || not (Prng.Rng.bernoulli !rng hold) then
        if pos.(i) < Family.length family path.(i) - 1 then pos.(i) <- pos.(i) + 1
        else begin
          let endpoint = Family.point_at family path.(i) pos.(i) in
          path.(i) <- Family.sample_path_from family !rng endpoint;
          pos.(i) <- 1
        end
    done
  in
  let current_point i = Family.point_at family path.(i) pos.(i) in
  (* Co-located nodes form a clique. Nodes are bucketed by point with a
     counting sort into scratch arrays reused across snapshots — points
     ascending, nodes ascending within a point, the order the old
     per-call list buckets emitted. *)
  let bucket_start = Array.make (n_points + 1) 0 in
  let bucket_cursor = Array.make n_points 0 in
  let members = Array.make n 0 in
  let iter_edges f =
    Array.fill bucket_cursor 0 n_points 0;
    for i = 0 to n - 1 do
      let p = current_point i in
      bucket_cursor.(p) <- bucket_cursor.(p) + 1
    done;
    bucket_start.(0) <- 0;
    for p = 0 to n_points - 1 do
      bucket_start.(p + 1) <- bucket_start.(p) + bucket_cursor.(p);
      bucket_cursor.(p) <- bucket_start.(p)
    done;
    for i = 0 to n - 1 do
      let p = current_point i in
      members.(bucket_cursor.(p)) <- i;
      bucket_cursor.(p) <- bucket_cursor.(p) + 1
    done;
    for p = 0 to n_points - 1 do
      for a = bucket_start.(p) to bucket_start.(p + 1) - 1 do
        for b = a + 1 to bucket_start.(p + 1) - 1 do
          f members.(a) members.(b)
        done
      done
    done
  in
  let dyn = Core.Dynamic.make ~n ~reset ~step ~iter_edges () in
  (dyn, fun () -> Array.init n current_point)

let make ?init ?hold ~n ~family () = fst (make_observable ?init ?hold ~n ~family ())

let random_walk ?init ?(hold = 0.5) ~n g =
  make ?init ~hold ~n ~family:(Family.edges_family g) ()
