type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Stafford's Mix13 finaliser: avalanches all 64 bits of [z]. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Mix used to derive a new gamma when splitting; must yield an odd value. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor z 1L in
  (* Reject gammas too close to a sparse bit pattern, as in the SplitMix paper. *)
  let bit_diff = Int64.logxor z (Int64.shift_right_logical z 1) in
  let popcount v =
    let rec go v acc = if Int64.equal v 0L then acc else go (Int64.logand v (Int64.sub v 1L)) (acc + 1) in
    go v 0
  in
  if popcount bit_diff < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create seed = { state = seed; gamma = golden_gamma }

let of_seed s = { state = mix64 (Int64.of_int s); gamma = golden_gamma }

let copy t = { state = t.state; gamma = t.gamma }

(* The whole generator is two words, which is what makes fleet jobs
   serialisable: a worker process rebuilds an experiment's generator
   from these bits and derives the exact same substreams. Not a draw
   and not a stream derivation, so neither function meters anything. *)
let state_bits t = (t.state, t.gamma)

let of_state_bits (state, gamma) = { state; gamma = Int64.logor gamma 1L }

let next_raw t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let int64 t = mix64 (next_raw t)

(* The scalar draws below hand-inline [mix64 (next_raw t)] instead of
   calling it. Without flambda, an [int64]-returning call boxes its
   result on every draw; fusing the pipeline into each function body
   keeps the whole mix in registers and only materialises the final
   [int]/[float]. The expressions are identical to [int64]'s, so every
   derived stream is bit-for-bit unchanged. *)

let[@inline] mixed_bits t =
  let s = Int64.add t.state t.gamma in
  t.state <- s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Stream derivations are the natural unit of "how much independent
   randomness did this run consume" — one per trial, model reset, or
   sweep cell — so they are the one thing the PRNG meters. *)
let c_splits = Obs.Metrics.counter "rng.splits"

let split t =
  Obs.Metrics.incr c_splits;
  let s = next_raw t in
  let s' = next_raw t in
  { state = mix64 s; gamma = mix_gamma s' }

let substream t i =
  Obs.Metrics.incr c_splits;
  let s = mix64 (Int64.logxor t.state (mix64 (Int64.of_int i))) in
  { state = s; gamma = mix_gamma (Int64.add s golden_gamma) }

let bits30 t =
  let s = Int64.add t.state t.gamma in
  t.state <- s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling on 30 bits to avoid modulo bias. *)
    let mask_bits = 1 lsl 30 in
    let limit = mask_bits - (mask_bits mod bound) in
    let rec draw () =
      let v = bits30 t in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end else begin
    let bits62 () = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    let range = 1 lsl 62 in
    let limit = range - (range mod bound) in
    let rec draw () =
      let v = bits62 () in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end

let int_incl t lo hi =
  if lo > hi then invalid_arg "Rng.int_incl: lo > hi";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 random bits scaled into [0, 1). *)
  let s = Int64.add t.state t.gamma in
  t.state <- s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let v = Int64.to_int (Int64.shift_right_logical z 11) in
  float_of_int v *. 0x1.0p-53

let float t b = unit_float t *. b

let float_range t lo hi = lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (mixed_bits t) 1L = 1L

(* [unit53 t] is [unit_float t] fused for local use: annotated for
   inlining so [bernoulli] and the geometric samplers see the float in
   a register instead of a fresh box per draw. *)
let[@inline always] unit53 t =
  let s = Int64.add t.state t.gamma in
  t.state <- s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) *. 0x1.0p-53

let bernoulli t p = unit53 t < p

let geometric t p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p out of (0, 1]";
  if p >= 1. then 0
  else
    let u = 1. -. unit53 t in
    (* u is uniform in (0, 1]; inversion of the geometric CDF. The
       ratio is non-negative (both logs are <= 0), where truncation
       equals floor, so [int_of_float] alone rounds identically to the
       historical [floor]-then-truncate. *)
    int_of_float (log u /. log (1. -. p))

let geometric_log1mp t ~log1mp =
  if not (log1mp < 0.) then invalid_arg "Rng.geometric_log1mp: log1mp must be negative";
  let u = 1. -. unit53 t in
  (* Same inversion as [geometric], with log (1 - p) hoisted out by the
     caller. The division is the identical float expression, so for
     log1mp = log (1. -. p) the two samplers are bit-for-bit equal
     (non-negative ratio: truncation = floor, as in [geometric]). *)
  int_of_float (log u /. log1mp)

(* Tabulated geometric sampling for scan loops that draw millions of
   skips from one fixed success probability. Inversion pays a [log]
   per draw (~10ns, the dominant term); Vose's alias method replaces
   it with two table reads off a single mixed word. The support is
   truncated at the first power of two K with (1-p)^K <= 2^-60 — the
   last bucket absorbs the tail, a perturbation below the resolution
   of a 53-bit uniform draw — and probabilities too small to tabulate
   within [max_table] buckets fall back to inversion, so [draw] is
   total on (0, 1). The stream differs from [geometric]'s (one word
   per draw instead of one 53-bit uniform), which is why switching a
   model to [Geo] is a golden-regenerating change. *)
module Geo = struct
  type sampler =
    | Alias of { mask : int; prob : float array; alias : int array }
    | Inversion of float  (* log (1 - p): p too small for a table *)

  let max_table = 8192

  let make ~p =
    if not (p > 0. && p < 1.) then invalid_arg "Rng.Geo.make: p outside (0, 1)";
    let l = log (1. -. p) in
    let needed = int_of_float (ceil (60. *. log 2. /. -.l)) in
    if needed > max_table then Inversion l
    else begin
      let k = ref 2 in
      while !k < needed do
        k := !k * 2
      done;
      let k = !k in
      (* w.(i) = P(X = i) = p (1-p)^i, except the last bucket holds the
         whole tail P(X >= k-1) = (1-p)^(k-1). *)
      let w =
        Array.init k (fun i ->
            let s = (1. -. p) ** float_of_int i in
            if i = k - 1 then s else p *. s)
      in
      (* Vose's construction: pair each under-full bucket with an
         over-full donor. Leftover buckets keep probability 1 (their
         scaled weight is 1 up to rounding), which absorbs the float
         error harmlessly. *)
      let prob = Array.make k 1. in
      let alias = Array.init k (fun i -> i) in
      let scaled = Array.map (fun x -> x *. float_of_int k) w in
      let small = Array.make k 0 and large = Array.make k 0 in
      let ns = ref 0 and nl = ref 0 in
      Array.iteri
        (fun i s ->
          if s < 1. then begin
            small.(!ns) <- i;
            incr ns
          end
          else begin
            large.(!nl) <- i;
            incr nl
          end)
        scaled;
      while !ns > 0 && !nl > 0 do
        decr ns;
        let s = small.(!ns) in
        let g = large.(!nl - 1) in
        prob.(s) <- scaled.(s);
        alias.(s) <- g;
        scaled.(g) <- scaled.(g) -. (1. -. scaled.(s));
        if scaled.(g) < 1. then begin
          decr nl;
          small.(!ns) <- g;
          incr ns
        end
      done;
      Alias { mask = k - 1; prob; alias }
    end

  let draw s t =
    match s with
    | Inversion l -> geometric_log1mp t ~log1mp:l
    | Alias { mask; prob; alias } ->
        (* One fused word per draw: low bits pick the bucket, the top
           41 bits form the bucket-local uniform. *)
        let s64 = Int64.add t.state t.gamma in
        t.state <- s64;
        let z =
          Int64.mul (Int64.logxor s64 (Int64.shift_right_logical s64 30)) 0xBF58476D1CE4E5B9L
        in
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
        let z = Int64.logxor z (Int64.shift_right_logical z 31) in
        let i = Int64.to_int z land mask in
        let frac = float_of_int (Int64.to_int (Int64.shift_right_logical z 23)) *. 0x1.0p-41 in
        if frac < Array.unsafe_get prob i then i else Array.unsafe_get alias i
end

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1. -. unit_float t) /. rate

let gaussian t =
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = unit_float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let perm t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 3 * k >= n then begin
    let a = perm t n in
    Array.sub a 0 k
  end else begin
    (* Rejection with a hash set: fast when k << n. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
