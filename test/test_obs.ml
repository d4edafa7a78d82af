open Helpers

(* Every test leaves the global observability switches off so the other
   suites (goldens in particular) run on the production fast path. *)
let clean_slate () =
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.Clock.set (fun () -> 0.)

let with_clean f () =
  clean_slate ();
  Fun.protect ~finally:clean_slate f

(* --- metrics --- *)

let c_a = Obs.Metrics.counter "test.a"

let c_b = Obs.Metrics.counter "test.b"

let test_disabled_is_noop () =
  Obs.Metrics.incr c_a;
  Obs.Metrics.add c_a 10;
  Alcotest.(check int) "disabled increments don't count" 0 (Obs.Metrics.value c_a);
  check_true "disabled scope collects nothing" (snd (Obs.Metrics.with_scope (fun () -> Obs.Metrics.incr c_a)) = []);
  Alcotest.(check int) "not even under a scope" 0 (Obs.Metrics.value c_a)

let test_counter_basics () =
  Obs.Metrics.enable ();
  Obs.Metrics.incr c_a;
  Obs.Metrics.add c_a 41;
  Obs.Metrics.add c_b 5;
  Alcotest.(check int) "value merges stripes" 42 (Obs.Metrics.value c_a);
  check_true "interning by name" (Obs.Metrics.value (Obs.Metrics.counter "test.a") = 42);
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (option int)) "snapshot has a" (Some 42) (List.assoc_opt "test.a" snap);
  Alcotest.(check (option int)) "snapshot has b" (Some 5) (List.assoc_opt "test.b" snap);
  check_true "snapshot sorted by name"
    (List.sort compare (List.map fst snap) = List.map fst snap);
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.value c_a)

(* The tentpole invariant, one layer down: counter totals are work
   totals, so a pool computes the same numbers as sequential. *)
let test_counters_scheduler_independent () =
  Obs.Metrics.enable ();
  let total sched =
    Obs.Metrics.reset ();
    let plan =
      Exec.plan ~jobs:100
        ~job:(fun i ->
          Obs.Metrics.incr c_a;
          Obs.Metrics.add c_b i;
          i)
        ~reduce:(fun _ -> ())
    in
    Exec.run sched plan;
    (Obs.Metrics.value c_a, Obs.Metrics.value c_b)
  in
  let seq = total Exec.sequential in
  Alcotest.(check (pair int int)) "sequential totals" (100, 4950) seq;
  Alcotest.(check (pair int int)) "pool 4 = sequential" seq (total (Exec.pool 4));
  Alcotest.(check (pair int int)) "pool 2 = sequential" seq (total (Exec.pool 2))

let test_exec_counters () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Exec.run (Exec.pool 4) (Exec.plan ~jobs:7 ~job:(fun i -> i) ~reduce:(fun _ -> ()));
  let v name = Obs.Metrics.value (Obs.Metrics.counter name) in
  Alcotest.(check int) "plans" 1 (v "exec.plans");
  Alcotest.(check int) "claimed" 7 (v "exec.jobs_claimed");
  Alcotest.(check int) "completed" 7 (v "exec.jobs_completed");
  Alcotest.(check int) "failed" 0 (v "exec.jobs_failed")

let test_with_scope_attribution () =
  Obs.Metrics.enable ();
  Obs.Metrics.incr c_a;
  let (), deltas =
    Obs.Metrics.with_scope (fun () ->
        Obs.Metrics.add c_a 3;
        Obs.Metrics.incr c_b)
  in
  Alcotest.(check (option int)) "scope saw its own a" (Some 3) (List.assoc_opt "test.a" deltas);
  Alcotest.(check (option int)) "scope saw its own b" (Some 1) (List.assoc_opt "test.b" deltas);
  Alcotest.(check int) "globals include outside-scope work" 4 (Obs.Metrics.value c_a)

(* Attribution must survive the pool: the sink is captured with the plan
   and installed on whichever domain runs each job. *)
let test_with_scope_under_pool () =
  Obs.Metrics.enable ();
  let (), deltas =
    Obs.Metrics.with_scope (fun () ->
        Exec.run (Exec.pool 4)
          (Exec.plan ~jobs:64 ~job:(fun i -> Obs.Metrics.add c_a i) ~reduce:(fun _ -> ())))
  in
  Alcotest.(check (option int)) "all worker increments attributed" (Some 2016)
    (List.assoc_opt "test.a" deltas)

let test_scope_shadowing () =
  Obs.Metrics.enable ();
  let (), outer =
    Obs.Metrics.with_scope (fun () ->
        Obs.Metrics.incr c_a;
        let (), inner = Obs.Metrics.with_scope (fun () -> Obs.Metrics.add c_a 10) in
        Alcotest.(check (option int)) "inner sees inner" (Some 10) (List.assoc_opt "test.a" inner))
  in
  Alcotest.(check (option int)) "inner shadows outer (no accumulation outwards)" (Some 1)
    (List.assoc_opt "test.a" outer)

let test_timer_and_gauge () =
  let t = ref 0. in
  Obs.Clock.set (fun () -> !t);
  Obs.Metrics.enable ();
  let tm = Obs.Metrics.timer "test.timer" in
  let result =
    Obs.Metrics.time tm (fun () ->
        t := !t +. 1.5;
        "done")
  in
  Alcotest.(check string) "timer passes the result through" "done" result;
  check_close ~eps:1e-5 "accumulated seconds" 1.5 (Obs.Metrics.timer_seconds tm);
  let g = Obs.Metrics.gauge "test.gauge" in
  check_true "unset gauge is nan" (Float.is_nan (Obs.Metrics.gauge_value g));
  Obs.Metrics.set_gauge g 7.25;
  check_close "gauge holds last write" 7.25 (Obs.Metrics.gauge_value g);
  check_true "timers listed" (List.mem_assoc "test.timer" (Obs.Metrics.timers ()));
  check_true "gauges listed" (List.mem_assoc "test.gauge" (Obs.Metrics.gauges ()));
  check_true "snapshot never contains wall-clock metrics"
    (not (List.mem_assoc "test.timer" (Obs.Metrics.snapshot ())))

(* --- progress --- *)

(* Capture updates through a custom renderer — the same hook the fleet
   parent and the serve daemon use — with the wall clock under test
   control so throttling is deterministic. *)
let with_captured_progress f () =
  clean_slate ();
  let seen = ref [] in
  Obs.Progress.set_renderer (Some (fun u -> seen := u :: !seen));
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.set_renderer None;
      Obs.Progress.disable ();
      clean_slate ())
    (fun () -> f seen)

let test_progress_disabled_is_silent =
  with_captured_progress (fun seen ->
      Obs.Progress.begin_plan ~jobs:5;
      Obs.Progress.tick ();
      Obs.Progress.sub ~label:"E1" ~completed:1 ~total:2;
      Obs.Progress.end_plan ();
      check_true "nothing rendered while disabled" (!seen = []))

let test_progress_updates_and_sub =
  with_captured_progress (fun seen ->
      let t = ref 0. in
      Obs.Clock.set (fun () -> !t);
      Obs.Progress.enable ~label:"verify" ();
      Obs.Progress.begin_plan ~jobs:3;
      t := 1.;
      Obs.Progress.tick ();
      t := 2.;
      Obs.Progress.sub ~label:"E7" ~completed:40 ~total:105;
      t := 3.;
      Obs.Progress.tick ();
      t := 4.;
      Obs.Progress.tick ();
      Obs.Progress.end_plan ();
      match List.rev !seen with
      | [ u1; u2; u3; u4; ufinal ] ->
          Alcotest.(check int) "first tick" 1 u1.Obs.Progress.completed;
          Alcotest.(check string) "label carried" "verify" u1.Obs.Progress.label;
          Alcotest.(check int) "total carried" 3 u1.Obs.Progress.total;
          check_true "sub rides the update"
            (u2.Obs.Progress.sub = Some ("E7", 40, 105));
          check_true "tick clears sub state" (u3.Obs.Progress.sub = None);
          Alcotest.(check int) "last tick" 3 u4.Obs.Progress.completed;
          check_true "only the end-of-plan update is final"
            (ufinal.Obs.Progress.final
            && not (u1.Obs.Progress.final || u2.Obs.Progress.final || u3.Obs.Progress.final
                   || u4.Obs.Progress.final))
      | us -> Alcotest.failf "expected 5 updates, got %d" (List.length us))

let test_progress_throttles_on_clock =
  with_captured_progress (fun seen ->
      let t = ref 10. in
      Obs.Clock.set (fun () -> !t);
      Obs.Progress.enable ();
      Obs.Progress.begin_plan ~jobs:100;
      (* 50 ticks at one instant: only the first renders. *)
      for _ = 1 to 50 do
        Obs.Progress.tick ()
      done;
      Alcotest.(check int) "burst collapses to one line" 1 (List.length !seen);
      t := 10.2;
      Obs.Progress.tick ();
      Alcotest.(check int) "renders again once the clock moves" 2 (List.length !seen);
      Obs.Progress.end_plan ();
      match !seen with
      | ufinal :: _ ->
          check_true "final update skips the throttle" ufinal.Obs.Progress.final;
          Alcotest.(check int) "three renders total" 3 (List.length !seen)
      | [] -> Alcotest.fail "no updates")

(* --- trace --- *)

(* Run [f] under a fresh child frame so trace coordinates restart from a
   fixed origin; in-process repeats then produce identical paths. *)
let under_fresh_frame f =
  Obs.Ambient.with_job (Obs.Ambient.Active { sink = None; path = [||] }) ~plan:0 ~job:0 f

let test_trace_disabled_noop () =
  Obs.Trace.emit "should.not.appear" [];
  check_true "no events recorded while disabled" (Obs.Trace.events () = [])

let test_trace_determinism_across_schedulers () =
  let render sched =
    Obs.Trace.enable ();
    under_fresh_frame (fun () ->
        Exec.run sched
          (Exec.plan ~jobs:16
             ~job:(fun i ->
               Obs.Trace.emit "job.work" [ ("i", Int i) ];
               if i mod 4 = 0 then Obs.Trace.emit "job.extra" [ ("sq", Int (i * i)) ])
             ~reduce:(fun _ -> ())));
    let out = Obs.Trace.render_jsonl () in
    Obs.Trace.disable ();
    out
  in
  let seq = render Exec.sequential in
  check_true "rendered something" (String.length seq > 200);
  Alcotest.(check string) "pool 4 = sequential" seq (render (Exec.pool 4));
  Alcotest.(check string) "pool 2 = sequential" seq (render (Exec.pool 2))

let test_trace_event_shape () =
  Obs.Trace.enable ();
  under_fresh_frame (fun () ->
      Obs.Trace.emit "shape" [ ("k", Int 3); ("x", Float 0.5); ("s", Str "a\"b") ]);
  (match Obs.Trace.events () with
  | [ ev ] ->
      Alcotest.(check string) "name" "shape" ev.Obs.Trace.name;
      check_true "path is the fresh frame's" (ev.Obs.Trace.path = [| 0; 0 |]);
      Alcotest.(check int) "first event of the frame" 0 ev.Obs.Trace.seq
  | evs -> Alcotest.failf "expected exactly one event, got %d" (List.length evs));
  let line = Obs.Trace.render_jsonl () in
  check_true "json escapes the quote"
    (let needle = "\"s\":\"a\\\"b\"" in
     let nh = String.length line and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub line i nn = needle || go (i + 1)) in
     go 0)

(* [wall] has microsecond resolution: on an epoch-seconds clock, two
   events 5 ms apart get different stamps, which six significant
   digits would both round to 1.79239e+09. *)
let test_trace_wall_resolution () =
  let t = ref 1792390000.25 in
  Obs.Clock.set (fun () -> !t);
  Obs.Trace.enable ();
  under_fresh_frame (fun () ->
      Obs.Trace.emit "first" [ ("x", Float 1792390000.25) ];
      t := !t +. 0.005;
      Obs.Trace.emit "second" []);
  let walls =
    List.map
      (fun line ->
        Scanf.sscanf line "{\"ev\":%S,\"ctx\":%S,\"seq\":%d,\"wall\":%[^,}]" (fun _ _ _ w -> w))
      (List.filter (( <> ) "") (String.split_on_char '\n' (Obs.Trace.render_jsonl ())))
  in
  Alcotest.(check (list string)) "stamps" [ "1792390000.250000"; "1792390000.255000" ] walls;
  check_true "other floats keep six significant digits"
    (let line = Obs.Trace.render_jsonl () and needle = "\"x\":1.79239e+09" in
     let nh = String.length line and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub line i nn = needle || go (i + 1)) in
     go 0)

let test_trace_ring_overflow () =
  Obs.Trace.enable ~capacity:4 ();
  under_fresh_frame (fun () ->
      for i = 1 to 10 do
        Obs.Trace.emit "tick" [ ("i", Int i) ]
      done);
  Alcotest.(check int) "kept capacity" 4 (List.length (Obs.Trace.events ()));
  Alcotest.(check int) "dropped the rest" 6 (Obs.Trace.dropped_events ());
  let out = Obs.Trace.render_jsonl () in
  check_true "overflow reported in the flush"
    (let needle = "\"ev\":\"trace.dropped\"" in
     let nh = String.length out and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub out i nn = needle || go (i + 1)) in
     go 0)

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "disabled is a no-op" `Quick (with_clean test_disabled_is_noop);
        Alcotest.test_case "counter basics" `Quick (with_clean test_counter_basics);
        Alcotest.test_case "scheduler independent" `Quick
          (with_clean test_counters_scheduler_independent);
        Alcotest.test_case "exec counters" `Quick (with_clean test_exec_counters);
        Alcotest.test_case "scope attribution" `Quick (with_clean test_with_scope_attribution);
        Alcotest.test_case "scope under pool" `Quick (with_clean test_with_scope_under_pool);
        Alcotest.test_case "scope shadowing" `Quick (with_clean test_scope_shadowing);
        Alcotest.test_case "timer and gauge" `Quick (with_clean test_timer_and_gauge);
      ] );
    ( "obs.progress",
      [
        Alcotest.test_case "disabled is silent" `Quick test_progress_disabled_is_silent;
        Alcotest.test_case "updates, sub state, final" `Quick test_progress_updates_and_sub;
        Alcotest.test_case "throttles on the wall clock" `Quick test_progress_throttles_on_clock;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "disabled is a no-op" `Quick (with_clean test_trace_disabled_noop);
        Alcotest.test_case "determinism across schedulers" `Quick
          (with_clean test_trace_determinism_across_schedulers);
        Alcotest.test_case "event shape and escaping" `Quick (with_clean test_trace_event_shape);
        Alcotest.test_case "ring overflow" `Quick (with_clean test_trace_ring_overflow);
        Alcotest.test_case "wall stamps resolve 5 ms" `Quick
          (with_clean test_trace_wall_resolution);
      ] );
  ]
