open Helpers

(* Trial-level sharding: the shard geometry and result/payload codecs
   of Simulate.Trial_plan / Simulate.Registry, and end-to-end byte
   identity of a single planned experiment sharded across a real
   worker fleet (--procs) versus the sequential scheduler. *)

module TP = Simulate.Trial_plan
module B = Exec.Spec.Buf

(* Like every real parent, the tests pass the worker its --jobs. *)
let worker_command = [| "../bin/dyngraph_cli.exe"; "worker"; "--jobs"; "1" |]

let with_fleet f =
  Exec.set_worker_command (Some worker_command);
  Fun.protect ~finally:(fun () -> Exec.set_worker_command None) f

(* --- shard geometry --- *)

(* A synthetic plan whose trial i of bag b deterministically returns
   b * 1000 + i, so merged results reveal exactly which (bag, trial)
   coordinates ran. *)
let synthetic_plan bag_sizes =
  let rng = rng_of_seed 99 in
  let bags =
    Array.of_list
      (List.mapi
         (fun b trials ->
           {
             TP.label = Printf.sprintf "bag%d" b;
             trials;
             rng = Prng.Rng.split rng;
             run_trial = (fun _ -> float_of_int ((b * 1000) + trials));
           })
         bag_sizes)
  in
  { TP.bags; render = (fun _ -> []) }

let test_shard_geometry () =
  let p = synthetic_plan [ 5; 20; 8; 1 ] in
  let shards = Array.to_list (TP.shards p) in
  let expected =
    [
      (* bag 0: 5 trials, one shard *)
      { TP.bag = 0; lo = 0; hi = 5 };
      (* bag 1: 20 trials -> 8 + 8 + 4, never crossing the bag *)
      { TP.bag = 1; lo = 0; hi = 8 };
      { TP.bag = 1; lo = 8; hi = 16 };
      { TP.bag = 1; lo = 16; hi = 20 };
      (* bag 2: exactly max_shard_trials *)
      { TP.bag = 2; lo = 0; hi = 8 };
      (* bag 3: a single trial *)
      { TP.bag = 3; lo = 0; hi = 1 };
    ]
  in
  Alcotest.(check int) "shard count" (List.length expected) (List.length shards);
  List.iter2
    (fun e s ->
      Alcotest.(check (triple int int int))
        "shard coordinates" (e.TP.bag, e.lo, e.hi)
        (s.TP.bag, s.lo, s.hi))
    expected shards;
  List.iter
    (fun s -> check_true "shard within bound" (s.TP.hi - s.lo <= TP.max_shard_trials))
    shards

let test_shard_geometry_invalid () =
  let p = synthetic_plan [ 3; 0 ] in
  check_true "empty bag rejected"
    (try
       ignore (TP.shards p);
       false
     with Invalid_argument _ -> true)

(* Sharded execution must cover each bag's trial indices exactly once,
   in order: concatenating run_shard over the shard list equals running
   the bag's trials directly. *)
let test_shard_covers_bag () =
  let rng = rng_of_seed 4 in
  let bag =
    {
      TP.label = "draws";
      trials = 19;
      rng;
      run_trial = (fun trng -> Prng.Rng.float trng 1.0);
    }
  in
  let p = { TP.bags = [| bag |]; render = (fun _ -> []) } in
  let direct =
    Array.init bag.TP.trials (fun i -> bag.TP.run_trial (Prng.Rng.substream bag.TP.rng i))
  in
  let merged =
    Array.concat (List.map (TP.run_shard p) (Array.to_list (TP.shards p)))
  in
  Alcotest.(check int) "length" (Array.length direct) (Array.length merged);
  Array.iteri (fun i v -> check_close "trial value" v merged.(i)) direct

(* --- result codec --- *)

let test_result_roundtrip () =
  let cases =
    [ [||]; [| 0. |]; [| 1.5; -3.25e10; infinity; neg_infinity; 1e-300; -0. |] ]
  in
  List.iter
    (fun a ->
      let back = TP.decode_result (TP.encode_result a) in
      Alcotest.(check int) "length" (Array.length a) (Array.length back);
      Array.iteri
        (fun i v ->
          Alcotest.(check int64) "float bits" (Int64.bits_of_float v)
            (Int64.bits_of_float back.(i)))
        a)
    cases

let result_roundtrip_prop =
  qtest ~count:200 "result codec round-trip" float_array_gen (fun a ->
      let back = TP.decode_result (TP.encode_result a) in
      Array.length back = Array.length a
      && Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           a back)

let rejects f =
  try
    ignore (f ());
    false
  with B.Corrupt _ -> true

let test_result_corrupt () =
  let raw = TP.encode_result [| 1.0; 2.0; 3.0 |] in
  check_true "truncated frame rejected"
    (rejects (fun () -> TP.decode_result (String.sub raw 0 (String.length raw - 3))));
  check_true "trailing bytes rejected" (rejects (fun () -> TP.decode_result (raw ^ "x")));
  (* A count that promises more floats than the frame carries. *)
  let b = Buffer.create 16 in
  B.add_int b 1000;
  B.add_float b 1.0;
  check_true "oversized count rejected"
    (rejects (fun () -> TP.decode_result (Buffer.contents b)))

(* --- fleet payload codec --- *)

module R = Simulate.Registry

let test_payload_roundtrip () =
  let cases =
    [
      R.Trial { id = "E6"; bits = (42L, 7L); scale = Simulate.Runner.Quick; shard = 0 };
      R.Trial { id = "E1"; bits = (-1L, Int64.min_int); scale = Simulate.Runner.Full; shard = 17 };
      R.Experiment
        { id = "E11"; bits = (Int64.max_int, 1L); scale = Simulate.Runner.Large; render = R.Full };
      R.Experiment
        { id = "E3"; bits = (0L, 3L); scale = Simulate.Runner.Quick; render = R.Scorecard };
    ]
  in
  List.iter
    (fun p -> check_true "decode inverts encode" (R.decode_payload (R.encode_payload p) = p))
    cases

(* [s] with the 8-byte integer field at byte [off] replaced by [v]. *)
let with_int_at s off v =
  let b = Buffer.create 8 in
  B.add_int b v;
  String.sub s 0 off ^ Buffer.contents b ^ String.sub s (off + 8) (String.length s - off - 8)

let test_payload_corrupt () =
  let bits = (42L, 7L) and scale = Simulate.Runner.Quick in
  List.iter
    (fun (kind, p) ->
      let payload = R.encode_payload p in
      let decode s () = R.decode_payload s in
      for len = 0 to String.length payload - 1 do
        check_true
          (Printf.sprintf "%s: %d-byte prefix rejected" kind len)
          (rejects (decode (String.sub payload 0 len)))
      done;
      check_true (kind ^ ": trailing byte rejected") (rejects (decode (payload ^ "\x00")));
      check_true (kind ^ ": unknown tag rejected")
        (rejects (decode ("Z" ^ String.sub payload 1 (String.length payload - 1))));
      (* Tag, then the id "E6" (8-byte length + 2 bytes), then the two
         8-byte halves of the generator state: the scale follows, and
         the kind's last field (render or shard) after it. *)
      let scale_at = 1 + 8 + 2 + 16 in
      check_true (kind ^ ": unknown scale rejected")
        (rejects (decode (with_int_at payload scale_at 7)));
      match p with
      | R.Experiment _ ->
          check_true "X: unknown render rejected"
            (rejects (decode (with_int_at payload (scale_at + 8) 9)))
      | R.Trial _ -> ())
    [
      ("X", R.Experiment { id = "E6"; bits; scale; render = R.Full });
      ("T", R.Trial { id = "E6"; bits; scale; shard = 2 });
    ]

(* --- worker-side dispatch --- *)

let trial_payload ~bits ~shard =
  R.encode_payload (R.Trial { id = "E6"; bits; scale = Simulate.Runner.Quick; shard })

(* A trial shard's dispatch must rebuild the identical plan from (id,
   bits, scale) and return exactly the bytes the parent-side run_shard
   would encode. *)
let test_dispatch_matches_local () =
  let e = Option.get (R.find "E6") in
  let make_plan = Option.get e.R.plan in
  let rng = rng_of_seed 42 in
  let bits = Prng.Rng.state_bits rng in
  let p = make_plan ~rng ~scale:Simulate.Runner.Quick in
  let shards = TP.shards p in
  check_true "E6 quick has several shards" (Array.length shards >= 4);
  Array.iteri
    (fun shard s ->
      let id = Printf.sprintf "E6.t%d" shard in
      Alcotest.(check string)
        (Printf.sprintf "shard %d bytes" shard)
        (TP.encode_result (TP.run_shard p s))
        (R.dispatch ~id ~payload:(trial_payload ~bits ~shard)))
    shards

let test_dispatch_rejects () =
  let bits = Prng.Rng.state_bits (rng_of_seed 1) in
  let fails id payload =
    try
      ignore (R.dispatch ~id ~payload);
      false
    with Failure _ -> true
  in
  check_true "mismatched spec id rejected" (fails "E6.t5" (trial_payload ~bits ~shard:0));
  check_true "out-of-range shard rejected"
    (fails "E6.t10000" (trial_payload ~bits ~shard:10_000));
  let experiment id =
    R.encode_payload (R.Experiment { id; bits; scale = Simulate.Runner.Quick; render = R.Full })
  in
  check_true "unknown experiment rejected" (fails "E99" (experiment "E99"));
  check_true "mismatched experiment spec id rejected" (fails "E2" (experiment "E1"))

(* --- end-to-end: single planned experiment across a real fleet --- *)

(* The acceptance criterion of DESIGN.md §13: a planned experiment's
   rendered bytes are identical at --procs 1 and --procs 4 (and match
   the sequential scheduler), with no degradation event, because its
   trial bag genuinely shards over the worker fleet. *)
let single_bytes ~sched ~seed id =
  let e = Option.get (Simulate.Registry.find id) in
  let output, _, _, _ =
    Simulate.Registry.single_outcome ~sched ~seed ~scale:Simulate.Runner.Quick e
  in
  output

let test_single_experiment_identity id =
  with_fleet @@ fun () ->
  List.iter
    (fun seed ->
      let seq = single_bytes ~sched:Exec.sequential ~seed id in
      check_true "rendered something" (String.length seq > 200);
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: procs 1 = sequential" id seed)
        seq
        (single_bytes ~sched:(Exec.procs 1) ~seed id);
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: procs 4 = sequential" id seed)
        seq
        (single_bytes ~sched:(Exec.procs 4) ~seed id))
    [ 42; 7 ]

let test_single_experiment_not_degraded () =
  with_fleet @@ fun () ->
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      ignore (single_bytes ~sched:(Exec.procs 4) ~seed:42 "E6");
      Alcotest.(check int) "exec.procs_degraded stays zero" 0
        (Obs.Metrics.value (Obs.Metrics.counter "exec.procs_degraded")))

let suites =
  [
    ( "trial_plan.shards",
      [
        Alcotest.test_case "geometry" `Quick test_shard_geometry;
        Alcotest.test_case "empty bag rejected" `Quick test_shard_geometry_invalid;
        Alcotest.test_case "shards cover each bag exactly" `Quick test_shard_covers_bag;
      ] );
    ( "trial_plan.codec",
      [
        Alcotest.test_case "result round-trip" `Quick test_result_roundtrip;
        result_roundtrip_prop;
        Alcotest.test_case "result corruption rejected" `Quick test_result_corrupt;
        Alcotest.test_case "payload round-trip" `Quick test_payload_roundtrip;
        Alcotest.test_case "payload corruption rejected" `Quick test_payload_corrupt;
      ] );
    ( "trial_plan.dispatch",
      [
        Alcotest.test_case "worker dispatch = local run" `Quick test_dispatch_matches_local;
        Alcotest.test_case "bad spec id / shard rejected" `Quick test_dispatch_rejects;
      ] );
    ( "trial_plan.fleet",
      [
        Alcotest.test_case "E6 byte identity, procs 1/4, seeds 42/7" `Slow (fun () ->
            test_single_experiment_identity "E6");
        Alcotest.test_case "E1 byte identity, procs 1/4, seeds 42/7" `Slow (fun () ->
            test_single_experiment_identity "E1");
        Alcotest.test_case "no degradation on the planned path" `Slow
          test_single_experiment_not_degraded;
      ] );
  ]
