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
          (Experiment
             {
               id = "E99";
               bits = Prng.Rng.state_bits (rng_of_seed 1);
               scale = quick;
               render = Full;
             });
      decode = Fun.id;
    }
  in
  let plan = Exec.plan_spec ~jobs:2 ~job:(fun _ -> "") ~spec ~reduce:Fun.id in
  check_true "worker-side exception fails the plan"
    (try
       ignore (Exec.run (Exec.procs 2) plan);
       false
     with Exec.Fleet_failure _ -> true)

(* --- env parsing (the warn-once satellite) --- *)

let test_env_parsing () =
  let saved_jobs = Sys.getenv_opt "DYNGRAPH_JOBS" in
  let saved_procs = Sys.getenv_opt "DYNGRAPH_PROCS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DYNGRAPH_JOBS" (Option.value ~default:"" saved_jobs);
      Unix.putenv "DYNGRAPH_PROCS" (Option.value ~default:"" saved_procs))
  @@ fun () ->
  Unix.putenv "DYNGRAPH_JOBS" "notanumber";
  Alcotest.(check int) "unparsable DYNGRAPH_JOBS ignored" 1 (Exec.workers (Exec.default ()));
  Unix.putenv "DYNGRAPH_JOBS" "3";
  Alcotest.(check int) "parsable DYNGRAPH_JOBS honoured" 3 (Exec.workers (Exec.default ()));
  Unix.putenv "DYNGRAPH_PROCS" "z9";
  Alcotest.(check int) "unparsable DYNGRAPH_PROCS is 0" 0 (Exec.default_procs ());
  Unix.putenv "DYNGRAPH_PROCS" "4";
  Alcotest.(check int) "parsable DYNGRAPH_PROCS honoured" 4 (Exec.default_procs ())

let suites =
  [
    ( "fleet.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "truncation" `Quick test_codec_truncation;
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
      ] );
    ( "fleet.env",
      [ Alcotest.test_case "DYNGRAPH_JOBS / DYNGRAPH_PROCS parsing" `Quick test_env_parsing ] );
  ]
