open Helpers

(* Cross-process sharded execution: the Spec codec, the checkpoint
   journal, and end-to-end fleet runs against real forked workers (the
   dyngraph CLI in `worker` mode — declared as a dep in test/dune, so
   it exists at ../bin/ relative to the test's cwd). *)

(* Like every real parent, the tests pass the worker its --jobs. *)
let worker_command = [| "../bin/dyngraph_cli.exe"; "worker"; "--jobs"; "1" |]

(* Every fleet test resets the engine's global fleet configuration on
   the way out so tests stay order-independent. *)
let with_fleet f =
  Exec.set_worker_command (Some worker_command);
  Fun.protect
    ~finally:(fun () ->
      Exec.set_worker_command None;
      Exec.set_journal None;
      Exec.set_worker_timeout None;
      Unix.putenv "DYNGRAPH_FLEET_CRASH" "";
      Unix.putenv "DYNGRAPH_FLEET_HANG" "")
    f

(* --- Spec.Buf codec --- *)

module B = Exec.Spec.Buf

let test_codec_roundtrip () =
  let b = Buffer.create 64 in
  let ints = [ 0; 1; -1; 42; max_int; min_int ] in
  List.iter (B.add_int b) ints;
  let floats = [ 0.; -0.; 1.5; -3.25e10; infinity; neg_infinity; 1e-300 ] in
  List.iter (B.add_float b) floats;
  let strings = [ ""; "abc"; "\x00\xffbinary\nframed" ] in
  List.iter (B.add_string b) strings;
  let pairs = [ ("flood.rounds", 17); ("rng.splits", 123456789) ] in
  B.add_pairs b pairs;
  let r = B.reader (Buffer.contents b) in
  List.iter (fun v -> Alcotest.(check int) "int" v (B.int r)) ints;
  List.iter
    (fun v ->
      Alcotest.(check int64) "float bits" (Int64.bits_of_float v)
        (Int64.bits_of_float (B.float r)))
    floats;
  List.iter (fun v -> Alcotest.(check string) "string" v (B.string r)) strings;
  Alcotest.(check (list (pair string int))) "pairs" pairs (B.pairs r);
  check_true "consumed everything" (B.at_end r)

let test_codec_truncation () =
  let b = Buffer.create 16 in
  B.add_string b "hello";
  let raw = Buffer.contents b in
  let r = B.reader (String.sub raw 0 (String.length raw - 2)) in
  check_true "truncated string raises Corrupt"
    (try
       ignore (B.string r);
       false
     with B.Corrupt _ -> true);
  (* A declared length far past the end must also be caught (it would
     otherwise wrap the bounds check). *)
  let b = Buffer.create 16 in
  B.add_int b max_int;
  let r = B.reader (Buffer.contents b ^ "x") in
  check_true "absurd length raises Corrupt"
    (try
       ignore (B.string r);
       false
     with B.Corrupt _ -> true)

(* --- the registry's fleet payload --- *)

module R = Simulate.Registry

let rejects f =
  try
    ignore (f ());
    false
  with B.Corrupt _ -> true

let test_payload_roundtrip () =
  let cases =
    [
      { R.id = "E11"; bits = (Int64.max_int, 1L); scale = Simulate.Runner.Large; render = R.Full };
      { R.id = "E3"; bits = (0L, 3L); scale = Simulate.Runner.Quick; render = R.Scorecard };
      { R.id = "E1"; bits = (-1L, Int64.min_int); scale = Simulate.Runner.Full; render = R.Full };
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
  let payload =
    R.encode_payload
      { R.id = "E6"; bits = (42L, 7L); scale = Simulate.Runner.Quick; render = R.Full }
  in
  let decode s () = R.decode_payload s in
  for len = 0 to String.length payload - 1 do
    check_true
      (Printf.sprintf "%d-byte prefix rejected" len)
      (rejects (decode (String.sub payload 0 len)))
  done;
  check_true "trailing byte rejected" (rejects (decode (payload ^ "\x00")));
  check_true "unknown tag rejected"
    (rejects (decode ("Z" ^ String.sub payload 1 (String.length payload - 1))));
  (* Tag, then the id "E6" (8-byte length + 2 bytes), then the two
     8-byte halves of the generator state: the scale follows, and the
     render after it. *)
  let scale_at = 1 + 8 + 2 + 16 in
  check_true "unknown scale rejected" (rejects (decode (with_int_at payload scale_at 7)));
  check_true "unknown render rejected" (rejects (decode (with_int_at payload (scale_at + 8) 9)))

let test_dispatch_rejects () =
  let bits = Prng.Rng.state_bits (rng_of_seed 1) in
  let fails id payload =
    try
      ignore (R.dispatch ~id ~payload);
      false
    with Failure _ -> true
  in
  let experiment id =
    R.encode_payload { R.id; bits; scale = Simulate.Runner.Quick; render = R.Full }
  in
  check_true "unknown experiment rejected" (fails "E99" (experiment "E99"));
  check_true "mismatched spec id rejected" (fails "E2" (experiment "E1"))

(* --- checkpoint journal --- *)

let entry_triples entries =
  List.map (fun (e : Exec.Journal.entry) -> (e.job, e.spec_id, e.data)) entries

let with_temp_journal f =
  let path = Filename.temp_file "dyngraph_journal" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_journal_roundtrip () =
  with_temp_journal @@ fun path ->
  let t, entries = Exec.Journal.open_ ~path ~jobs:3 ~digest:"d1" in
  Alcotest.(check int) "fresh journal has no entries" 0 (List.length entries);
  Exec.Journal.append t ~job:2 ~spec_id:"E3" ~data:"payload-two";
  Exec.Journal.append t ~job:0 ~spec_id:"E1" ~data:"payload-zero\x00binary";
  Exec.Journal.close t;
  let t, entries = Exec.Journal.open_ ~path ~jobs:3 ~digest:"d1" in
  Exec.Journal.close t;
  Alcotest.(check (list (triple int string string)))
    "entries replay in append order"
    [ (2, "E3", "payload-two"); (0, "E1", "payload-zero\x00binary") ]
    (entry_triples entries)

let test_journal_torn_tail () =
  with_temp_journal @@ fun path ->
  let t, _ = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.append t ~job:0 ~spec_id:"E1" ~data:"good";
  Exec.Journal.close t;
  (* Simulate a SIGKILL mid-append: raw garbage after the last frame. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x00\x00\x00\x00\x00\x29torn-frame-with";
  close_out oc;
  let t, entries = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Alcotest.(check (list (triple int string string)))
    "torn tail truncated, good frames kept"
    [ (0, "E1", "good") ]
    (entry_triples entries);
  (* The journal is usable after recovery: appends land after the
     truncation point and survive another reopen. *)
  Exec.Journal.append t ~job:1 ~spec_id:"E2" ~data:"after-recovery";
  Exec.Journal.close t;
  let t, entries = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.close t;
  Alcotest.(check int) "both entries after recovery" 2 (List.length entries)

(* Clean resume compacts: duplicate shard frames (worker crash re-runs)
   and torn tails are rewritten away, first write per job wins, and the
   rewritten file both shrinks and still resumes. *)
let test_journal_compaction () =
  with_temp_journal @@ fun path ->
  let t, _ = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.append t ~job:0 ~spec_id:"E1" ~data:"first-write";
  Exec.Journal.append t ~job:0 ~spec_id:"E1" ~data:"duplicate-after-crash";
  Exec.Journal.append t ~job:7 ~spec_id:"E9" ~data:"out-of-range";
  Exec.Journal.append t ~job:1 ~spec_id:"E2" ~data:"second";
  Exec.Journal.close t;
  let dirty_size = (Unix.stat path).Unix.st_size in
  let t, entries = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.close t;
  Alcotest.(check (list (triple int string string)))
    "only live entries survive"
    [ (0, "E1", "first-write"); (1, "E2", "second") ]
    (entry_triples entries);
  let compact_size = (Unix.stat path).Unix.st_size in
  check_true "compaction reclaimed dead frames" (compact_size < dirty_size);
  (* The rewritten file is a well-formed journal: resuming again finds
     the same entries and, being clean now, rewrites nothing. *)
  let t, entries = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.close t;
  Alcotest.(check int) "compacted journal resumes" 2 (List.length entries);
  Alcotest.(check int) "clean resume left the file alone" compact_size
    (Unix.stat path).Unix.st_size

let test_journal_compaction_torn_tail () =
  with_temp_journal @@ fun path ->
  let t, _ = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.append t ~job:0 ~spec_id:"E1" ~data:"good";
  Exec.Journal.close t;
  let clean_size = (Unix.stat path).Unix.st_size in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x00\x00\x00\x00\x00\x29torn-frame-with";
  close_out oc;
  let t, entries = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.close t;
  Alcotest.(check int) "good frame kept" 1 (List.length entries);
  Alcotest.(check int) "torn tail compacted away" clean_size ((Unix.stat path).Unix.st_size)

let test_journal_plan_mismatch () =
  with_temp_journal @@ fun path ->
  let t, _ = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d1" in
  Exec.Journal.append t ~job:0 ~spec_id:"E1" ~data:"stale";
  Exec.Journal.close t;
  (* A different digest (other seed / scale / experiment set) must
     discard the journal rather than resume mixed shards. *)
  let t, entries = Exec.Journal.open_ ~path ~jobs:2 ~digest:"d2" in
  Exec.Journal.close t;
  Alcotest.(check int) "mismatched journal discarded" 0 (List.length entries)

(* --- end-to-end fleet runs --- *)

let quick = Simulate.Runner.Quick

let render_outputs results =
  String.concat "" (List.map (fun (o : Simulate.Registry.outcome) -> o.output) results)

let sequential_bytes seed =
  render_outputs
    (Simulate.Registry.run_each ~sched:Exec.sequential ~rng:(rng_of_seed seed) ~scale:quick ())

let fleet_bytes ~procs seed =
  render_outputs
    (Simulate.Registry.run_each ~sched:(Exec.procs procs) ~rng:(rng_of_seed seed) ~scale:quick ())

let test_fleet_byte_identity () =
  with_fleet @@ fun () ->
  let seq = sequential_bytes 42 in
  check_true "rendered something" (String.length seq > 2_000);
  Alcotest.(check string) "procs 2 = sequential" seq (fleet_bytes ~procs:2 42)

(* Payloads carry the generator's state, not a seed: a substream that
   no seed names still renders the same bytes across the fleet. *)
let test_fleet_any_generator () =
  with_fleet @@ fun () ->
  let rendered sched =
    render_outputs
      (Simulate.Registry.run_each ~sched ~rng:(Prng.Rng.substream (rng_of_seed 3) 5)
         ~scale:quick ())
  in
  Alcotest.(check string) "procs 2 = sequential" (rendered Exec.sequential)
    (rendered (Exec.procs 2))

let test_fleet_journal_resume () =
  with_fleet @@ fun () ->
  with_temp_journal @@ fun path ->
  let seq = sequential_bytes 7 in
  Exec.set_journal (Some path);
  Alcotest.(check string) "journaled fleet run = sequential" seq (fleet_bytes ~procs:2 7);
  (* Every shard is now in the journal: a resumed run must not need
     workers at all. An unspawnable worker command proves it — if any
     shard were recomputed, the run would fail. *)
  Exec.set_worker_command (Some [| "/nonexistent/dyngraph-worker"; "worker" |]);
  Alcotest.(check string) "resume replays entirely from journal" seq (fleet_bytes ~procs:2 7)

let test_fleet_crash_isolation () =
  with_fleet @@ fun () ->
  let seq = sequential_bytes 42 in
  let marker = Filename.temp_file "dyngraph_crash" ".marker" in
  Sys.remove marker;
  Fun.protect ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
  @@ fun () ->
  (* The first worker handed E5 exits hard (code 70) before responding;
     only that shard may be re-run, and the merged output must not
     change. The marker file both makes the fault one-shot and proves
     the crash actually happened. *)
  Unix.putenv "DYNGRAPH_FLEET_CRASH" ("E5:" ^ marker);
  Alcotest.(check string) "output identical despite worker crash" seq (fleet_bytes ~procs:3 42);
  check_true "the injected crash fired" (Sys.file_exists marker)

let test_fleet_timeout_rerun () =
  with_fleet @@ fun () ->
  (* The budget must exceed every healthy shard, or slow hosts kill
     honest workers too: scale it from a timed sequential run. *)
  let timed =
    Simulate.Registry.run_each ~sched:Exec.sequential ~clock:Unix.gettimeofday
      ~rng:(rng_of_seed 42) ~scale:quick ()
  in
  let seq = render_outputs timed in
  let slowest =
    List.fold_left (fun acc (o : Simulate.Registry.outcome) -> Float.max acc o.seconds) 0. timed
  in
  let marker = Filename.temp_file "dyngraph_hang" ".marker" in
  Sys.remove marker;
  Fun.protect ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
  @@ fun () ->
  (* The first worker handed E2 wedges; the parent must SIGKILL it once
     the budget runs out and re-run the shard on a fresh worker. *)
  Unix.putenv "DYNGRAPH_FLEET_HANG" ("E2:" ^ marker);
  Exec.set_worker_timeout (Some (Float.max 1.0 (4. *. slowest)));
  Alcotest.(check string) "output identical despite wedged worker" seq (fleet_bytes ~procs:2 42);
  check_true "the injected hang fired" (Sys.file_exists marker)

let test_fleet_worker_exception () =
  with_fleet @@ fun () ->
  (* A payload naming an experiment the worker-side dispatcher does not
     know: the worker answers with an error frame and the parent fails
     the plan (matching the in-process semantics of a raising job),
     rather than hanging or silently dropping the shard. *)
  let spec _ =
    {
      Exec.Spec.id = "E99";
      payload =
        Simulate.Registry.encode_payload
          { id = "E99"; bits = Prng.Rng.state_bits (rng_of_seed 1); scale = quick; render = Full };
      decode = Fun.id;
    }
  in
  let plan = Exec.plan_spec ~jobs:2 ~job:(fun _ -> "") ~spec ~reduce:Fun.id in
  check_true "worker-side exception fails the plan"
    (try
       ignore (Exec.run (Exec.procs 2) plan);
       false
     with Exec.Fleet_failure _ -> true)

(* --- single experiments: a one-job plan on one worker --- *)

let single_bytes ~sched ~seed id =
  let output, _, _, _ =
    R.single_outcome ~sched ~seed ~scale:quick (Option.get (R.find id))
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

(* A single experiment is crash-isolated like any fleet job: the worker
   running E2 dies once and a fresh worker re-runs it. *)
let test_single_experiment_crash () =
  with_fleet @@ fun () ->
  let seq = single_bytes ~sched:Exec.sequential ~seed:42 "E2" in
  let marker = Filename.temp_file "dyngraph_crash" ".marker" in
  Sys.remove marker;
  Fun.protect ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
  @@ fun () ->
  Unix.putenv "DYNGRAPH_FLEET_CRASH" ("E2:" ^ marker);
  Alcotest.(check string) "output identical despite worker crash" seq
    (single_bytes ~sched:(Exec.procs 1) ~seed:42 "E2");
  check_true "the injected crash fired" (Sys.file_exists marker)

(* --- env parsing (the warn-once satellite) --- *)

(* Run [f] with file descriptor 2 pointed at a temporary file; return
   its result and everything it wrote to stderr. *)
let with_captured_stderr f =
  let path = Filename.temp_file "dyngraph_stderr" ".txt" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (v, text)

let lines_mentioning var text =
  let n = String.length var in
  let mentions l =
    let rec at i = i + n <= String.length l && (String.sub l i n = var || at (i + 1)) in
    at 0
  in
  List.length (List.filter mentions (String.split_on_char '\n' text))

let test_env_parsing () =
  let saved_jobs = Sys.getenv_opt "DYNGRAPH_JOBS" in
  let saved_procs = Sys.getenv_opt "DYNGRAPH_PROCS" in
  (* Restoring an unset variable to its unset meaning, since it cannot
     be unset again: 1 job, no fleet. *)
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DYNGRAPH_JOBS" (Option.value ~default:"1" saved_jobs);
      Unix.putenv "DYNGRAPH_PROCS" (Option.value ~default:"0" saved_procs))
  @@ fun () ->
  Unix.putenv "DYNGRAPH_JOBS" "notanumber";
  Alcotest.(check int) "unparsable DYNGRAPH_JOBS ignored" 1 (Exec.workers (Exec.default ()));
  Unix.putenv "DYNGRAPH_JOBS" "3";
  Alcotest.(check int) "parsable DYNGRAPH_JOBS honoured" 3 (Exec.workers (Exec.default ()));
  Unix.putenv "DYNGRAPH_PROCS" "z9";
  Alcotest.(check int) "unparsable DYNGRAPH_PROCS is 0" 0 (Exec.default_procs ());
  Unix.putenv "DYNGRAPH_PROCS" "4";
  Alcotest.(check int) "parsable DYNGRAPH_PROCS honoured" 4 (Exec.default_procs ());
  (* Out-of-range values fall back like unparsable ones, and say so
     exactly once however often they are read. *)
  Unix.putenv "DYNGRAPH_JOBS" "0";
  let workers, err =
    with_captured_stderr (fun () ->
        ignore (Exec.default ());
        Exec.workers (Exec.default ()))
  in
  Alcotest.(check int) "DYNGRAPH_JOBS=0 is sequential" 1 workers;
  Alcotest.(check int) "DYNGRAPH_JOBS=0 warns once" 1 (lines_mentioning "DYNGRAPH_JOBS" err);
  Unix.putenv "DYNGRAPH_PROCS" "-3";
  let procs, err =
    with_captured_stderr (fun () ->
        ignore (Exec.default_procs ());
        Exec.default_procs ())
  in
  Alcotest.(check int) "DYNGRAPH_PROCS=-3 is 0" 0 procs;
  Alcotest.(check int) "DYNGRAPH_PROCS=-3 warns once" 1 (lines_mentioning "DYNGRAPH_PROCS" err)

let suites =
  [
    ( "fleet.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "truncation" `Quick test_codec_truncation;
        Alcotest.test_case "payload round-trip" `Quick test_payload_roundtrip;
        Alcotest.test_case "payload corruption rejected" `Quick test_payload_corrupt;
      ] );
    ( "fleet.dispatch",
      [
        Alcotest.test_case "bad spec id / unknown experiment rejected" `Quick
          test_dispatch_rejects;
      ] );
    ( "fleet.journal",
      [
        Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "torn tail recovery" `Quick test_journal_torn_tail;
        Alcotest.test_case "compaction on clean resume" `Quick test_journal_compaction;
        Alcotest.test_case "compaction reclaims torn tail" `Quick
          test_journal_compaction_torn_tail;
        Alcotest.test_case "plan mismatch discards" `Quick test_journal_plan_mismatch;
      ] );
    ( "fleet.procs",
      [
        Alcotest.test_case "byte identity, procs 2, seed 42" `Slow test_fleet_byte_identity;
        Alcotest.test_case "journal checkpoint and resume" `Slow test_fleet_journal_resume;
        Alcotest.test_case "crash isolation" `Slow test_fleet_crash_isolation;
        Alcotest.test_case "timeout re-run" `Slow test_fleet_timeout_rerun;
        Alcotest.test_case "worker exception fails plan" `Slow test_fleet_worker_exception;
        Alcotest.test_case "unseeded generator, procs 2 = sequential" `Slow
          test_fleet_any_generator;
        Alcotest.test_case "E1 byte identity, procs 1/4, seeds 42/7" `Slow (fun () ->
            test_single_experiment_identity "E1");
        Alcotest.test_case "E6 byte identity, procs 1/4, seeds 42/7" `Slow (fun () ->
            test_single_experiment_identity "E6");
        Alcotest.test_case "E2 byte identity, procs 1/4, seeds 42/7" `Slow (fun () ->
            test_single_experiment_identity "E2");
        Alcotest.test_case "single experiment crash isolation" `Slow
          test_single_experiment_crash;
      ] );
    ( "fleet.env",
      [ Alcotest.test_case "DYNGRAPH_JOBS / DYNGRAPH_PROCS parsing" `Quick test_env_parsing ] );
  ]
