open Helpers

(* --- scheduler construction --- *)

let test_workers () =
  Alcotest.(check int) "sequential" 1 (Exec.workers Exec.sequential);
  Alcotest.(check int) "pool 1 is sequential" 1 (Exec.workers (Exec.pool 1));
  Alcotest.(check int) "pool 3" 3 (Exec.workers (Exec.pool 3));
  check_true "pool clamps huge requests" (Exec.workers (Exec.pool 10_000) <= 10_000);
  check_true "pool 0 rejected"
    (try
       ignore (Exec.pool 0);
       false
     with Invalid_argument _ -> true)

let test_of_int () =
  Alcotest.(check int) "of_int 0" 1 (Exec.workers (Exec.of_int 0));
  Alcotest.(check int) "of_int -3" 1 (Exec.workers (Exec.of_int (-3)));
  Alcotest.(check int) "of_int 2" 2 (Exec.workers (Exec.of_int 2))

(* --- plan execution --- *)

let square_plan n =
  Exec.plan ~jobs:n ~job:(fun i -> i * i) ~reduce:(fun a -> Array.to_list a)

(* Results must land at their job's index no matter which domain ran
   it, and the reducer must see them in index order. *)
let test_order_preserved () =
  let expect = List.init 100 (fun i -> i * i) in
  Alcotest.(check (list int)) "sequential" expect (Exec.run Exec.sequential (square_plan 100));
  Alcotest.(check (list int)) "pool 2" expect (Exec.run (Exec.pool 2) (square_plan 100));
  Alcotest.(check (list int)) "pool 4" expect (Exec.run (Exec.pool 4) (square_plan 100))

let test_map () =
  let a = Exec.map (Exec.pool 3) ~jobs:17 (fun i -> 2 * i) in
  Alcotest.(check int) "length" 17 (Array.length a);
  Array.iteri (fun i v -> Alcotest.(check int) "value" (2 * i) v) a

let test_empty_and_tiny () =
  Alcotest.(check (list int)) "zero jobs" [] (Exec.run (Exec.pool 4) (square_plan 0));
  Alcotest.(check (list int)) "one job" [ 0 ] (Exec.run (Exec.pool 4) (square_plan 1));
  Alcotest.(check (list int)) "fewer jobs than workers" [ 0; 1; 4 ]
    (Exec.run (Exec.pool 4) (square_plan 3))

(* A raising job must propagate out of [run] (not hang the pool, not
   get swallowed by a worker domain). *)
exception Boom

let test_exception_propagates () =
  let plan =
    Exec.plan ~jobs:50
      ~job:(fun i -> if i = 31 then raise Boom else i)
      ~reduce:(fun _ -> ())
  in
  check_true "sequential raises"
    (try
       Exec.run Exec.sequential plan;
       false
     with Boom -> true);
  check_true "pool raises"
    (try
       Exec.run (Exec.pool 4) plan;
       false
     with Boom -> true)

(* The drain contract of exec.mli: a failing job re-raises with its
   backtrace, and the pool is left fully drained — no worker domain
   still running, so an immediately following pool run works normally. *)
let test_failure_drains_and_reraises () =
  Printexc.record_backtrace true;
  let failing =
    Exec.plan ~jobs:64
      ~job:(fun i -> if i = 13 then failwith "job 13" else i)
      ~reduce:(fun _ -> ())
  in
  let backtrace =
    match Exec.run (Exec.pool 4) failing with
    | () -> Alcotest.fail "failing plan returned"
    | exception Failure msg ->
        Alcotest.(check string) "original exception" "job 13" msg;
        Printexc.get_raw_backtrace ()
  in
  check_true "re-raised with a backtrace" (Printexc.raw_backtrace_length backtrace > 0);
  (* The pool drained: the same scheduler immediately runs a clean plan
     to completion (a leaked worker domain would still hold the cursor
     or deadlock the spawn path). *)
  let expect = List.init 40 (fun i -> i * i) in
  Alcotest.(check (list int)) "pool usable after failure" expect
    (Exec.run (Exec.pool 4) (square_plan 40))

(* A plan run from inside a pool job must fall back to sequential and
   still return the right answer (no nested domain explosion). *)
let test_nested_plan () =
  let outer =
    Exec.plan ~jobs:6
      ~job:(fun i ->
        let inner = Exec.plan ~jobs:5 ~job:(fun j -> i * j) ~reduce:(Array.fold_left ( + ) 0) in
        Exec.run (Exec.pool 4) inner)
      ~reduce:(fun a -> Array.to_list a)
  in
  let expect = List.init 6 (fun i -> i * 10) in
  Alcotest.(check (list int)) "nested totals" expect (Exec.run (Exec.pool 3) outer)

(* The other documented-but-untested exec.mli contract: the nested pool
   does not merely return the right answer, it actually runs
   sequentially on the worker's own domain (never spawns). Each inner
   job records the domain it ran on; all of them must equal the domain
   of the outer job that planned them. *)
let test_nested_pool_runs_sequentially () =
  let nested_domains =
    Exec.run (Exec.pool 3)
      (Exec.plan ~jobs:4
         ~job:(fun _ ->
           let outer_domain = (Domain.self () :> int) in
           let inner =
             Exec.map (Exec.pool 4) ~jobs:8 (fun _ -> (Domain.self () :> int))
           in
           (outer_domain, inner))
         ~reduce:Array.to_list)
  in
  List.iter
    (fun (outer_domain, inner) ->
      Array.iter
        (fun d -> Alcotest.(check int) "inner job on outer's domain" outer_domain d)
        inner)
    nested_domains

(* --- the persistent crew --- *)

(* Jobs and tiles that sleep about 1 ms, so helpers get their share,
   and record the domain they ran on. *)
let sleepy_domain _ =
  Unix.sleepf 0.001;
  (Domain.self () :> int)

let distinct arrays = List.length (List.sort_uniq compare (List.concat_map Array.to_list arrays))

let with_tile_workers w f =
  Exec.Pool.set_workers w;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_workers 1) f

(* Plans run on the crew the tile kernels use, not on domains spawned
   per plan: two consecutive pool-2 plans and a width-2 fan-out after
   them all run on the caller plus one and the same helper. *)
let test_plans_reuse_crew () =
  let first = Exec.map (Exec.pool 2) ~jobs:16 sleepy_domain in
  let second = Exec.map (Exec.pool 2) ~jobs:16 sleepy_domain in
  let tiles = Array.make 16 0 in
  with_tile_workers 2 (fun () ->
      Exec.Pool.run_tiles 16 (fun i -> tiles.(i) <- sleepy_domain i));
  Alcotest.(check bool) "at most 2 domains" true (distinct [ first; second; tiles ] <= 2)

(* A wider fan-out grows the crew, but a plan keeps its width: only
   the caller and helper 1 serve a pool-2 plan. *)
let test_plan_width_after_wide_fan_out () =
  with_tile_workers 4 (fun () -> Exec.Pool.run_tiles 32 (fun i -> ignore (sleepy_domain i)));
  let ran = Exec.map (Exec.pool 2) ~jobs:32 sleepy_domain in
  Alcotest.(check bool) "at most 2 domains" true (distinct [ ran ] <= 2)

(* --- determinism of the full pipeline --- *)

(* The tentpole invariant: `run all` output is byte-identical for every
   worker count. Render every experiment through the one shared code
   path at quick scale and compare the concatenated bytes. *)
let rendered ~sched seed =
  Simulate.Registry.run_each ~sched ~rng:(rng_of_seed seed) ~scale:Simulate.Runner.Quick ()
  |> List.map (fun (o : Simulate.Registry.outcome) -> o.output)
  |> String.concat ""

let test_run_all_bytes_workers_seed42 () =
  let seq = rendered ~sched:Exec.sequential 42 in
  check_true "rendered something" (String.length seq > 2_000);
  Alcotest.(check string) "pool 4 = sequential" seq (rendered ~sched:(Exec.pool 4) 42)

let test_run_all_bytes_workers_seed7 () =
  let seq = rendered ~sched:Exec.sequential 7 in
  Alcotest.(check string) "pool 2 = sequential" seq (rendered ~sched:(Exec.pool 2) 7)

(* Same invariant one layer down: a single experiment's trial plans
   under a pool vs sequentially. E12 fans one job per trial. *)
let test_single_experiment_bytes () =
  let e12 =
    List.find (fun (e : Simulate.Registry.experiment) -> e.id = "E12") Simulate.Registry.all
  in
  let render sched =
    fst
      (Simulate.Registry.render_one ~sched ~rng:(rng_of_seed 11)
         ~scale:Simulate.Runner.Quick e12)
  in
  Alcotest.(check string) "E12 pool 4 = sequential" (render Exec.sequential)
    (render (Exec.pool 4))

(* --- deadlines on the monotonic clock --- *)

(* No sleeps: the monotonic source is injected, so expiry is a pure
   function of the fake clock. Restoring the real source in [finally]
   keeps the other suites honest. *)
let with_fake_monotonic f () =
  let t = ref 100. in
  Obs.Clock.set_monotonic (fun () -> !t);
  Fun.protect
    ~finally:(fun () -> Obs.Clock.set_monotonic Obs.Clock.monotonic_raw)
    (fun () -> f t)

let test_deadline_unarmed =
  with_fake_monotonic (fun t ->
      check_true "none is unarmed" (not (Exec.Deadline.armed Exec.Deadline.none));
      check_true "none never expires" (not (Exec.Deadline.expired Exec.Deadline.none));
      check_true "none waits forever"
        (Exec.Deadline.seconds_left Exec.Deadline.none = infinity);
      t := 1e12;
      check_true "still never expires" (not (Exec.Deadline.expired Exec.Deadline.none)))

let test_deadline_expiry =
  with_fake_monotonic (fun t ->
      let d = Exec.Deadline.arm 5. in
      check_true "armed" (Exec.Deadline.armed d);
      check_true "not expired yet" (not (Exec.Deadline.expired d));
      check_close ~eps:1e-9 "full time left" 5. (Exec.Deadline.seconds_left d);
      t := 104.9;
      check_true "still not expired" (not (Exec.Deadline.expired d));
      check_close ~eps:1e-9 "tenth of a second left" 0.1 (Exec.Deadline.seconds_left d);
      t := 105.;
      check_true "expires exactly on time" (Exec.Deadline.expired d);
      t := 107.;
      check_close ~eps:1e-9 "negative once past" (-2.) (Exec.Deadline.seconds_left d))

(* The bug the sweep fixes: hang deadlines used to sit on the wall
   clock, so an NTP step (or any Clock.set) could fire or starve them.
   Arming and expiry must be invariant under wall-clock jumps. *)
let test_deadline_ignores_wall_clock =
  with_fake_monotonic (fun t ->
      let d = Exec.Deadline.arm 10. in
      Obs.Clock.set (fun () -> 1e9);
      check_true "wall jump forward does not expire" (not (Exec.Deadline.expired d));
      Obs.Clock.set (fun () -> -1e9);
      check_true "wall jump backward does not extend"
        (Exec.Deadline.seconds_left d = 10.);
      Obs.Clock.set (fun () -> 0.);
      t := 110.;
      check_true "monotonic progress alone expires it" (Exec.Deadline.expired d))

(* --- procs plans never fall back to the pool --- *)

(* Outside a worker a [procs] plan goes to the fleet or nowhere: without
   a spec, or before a worker command is set, [run] refuses it instead
   of quietly running it in-process. *)
let test_procs_rejects_unrunnable_plans () =
  Exec.set_worker_command (Some [| "/nonexistent/dyngraph-worker"; "worker" |]);
  Fun.protect
    ~finally:(fun () -> Exec.set_worker_command None)
    (fun () ->
      check_true "a procs plan without a spec raises"
        (raises_invalid (fun () -> Exec.run (Exec.procs 2) (square_plan 20))));
  let spec i = { Exec.Spec.id = string_of_int i; payload = ""; decode = int_of_string } in
  check_true "a procs plan before set_worker_command raises"
    (raises_invalid (fun () ->
         Exec.run (Exec.procs 2) (Exec.plan_spec ~jobs:3 ~job:Fun.id ~spec ~reduce:Fun.id)))

(* --- progress belongs to the outermost plan that splits work --- *)

(* A single in-process experiment is a one-job plan, which leaves
   progress to the experiment's own plans: their updates count more
   than one job. *)
let test_single_experiment_progress () =
  let totals = ref [] in
  Obs.Progress.set_renderer (Some (fun u -> totals := u.Obs.Progress.total :: !totals));
  Obs.Progress.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.disable ();
      Obs.Progress.set_renderer None)
    (fun () ->
      let e6 = Option.get (Simulate.Registry.find "E6") in
      ignore (Simulate.Registry.single_outcome ~seed:42 ~scale:Simulate.Runner.Quick e6));
  check_true "an update counts the experiment's own jobs" (List.exists (fun t -> t > 1) !totals)

let suites =
  [
    ( "exec.scheduler",
      [
        Alcotest.test_case "workers" `Quick test_workers;
        Alcotest.test_case "of_int" `Quick test_of_int;
      ] );
    ( "exec.plan",
      [
        Alcotest.test_case "order preserved" `Quick test_order_preserved;
        Alcotest.test_case "map" `Quick test_map;
        Alcotest.test_case "empty and tiny" `Quick test_empty_and_tiny;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "failure drains and re-raises" `Quick
          test_failure_drains_and_reraises;
        Alcotest.test_case "nested plan" `Quick test_nested_plan;
        Alcotest.test_case "nested pool runs sequentially" `Quick
          test_nested_pool_runs_sequentially;
      ] );
    ( "exec.crew",
      [
        Alcotest.test_case "plans and tiles reuse one helper" `Quick test_plans_reuse_crew;
        Alcotest.test_case "plan width holds after a wider fan-out" `Quick
          test_plan_width_after_wide_fan_out;
      ] );
    ( "exec.determinism",
      [
        Alcotest.test_case "run all bytes, 4 workers, seed 42" `Slow
          test_run_all_bytes_workers_seed42;
        Alcotest.test_case "run all bytes, 2 workers, seed 7" `Slow
          test_run_all_bytes_workers_seed7;
        Alcotest.test_case "single experiment bytes" `Slow test_single_experiment_bytes;
      ] );
    ( "exec.deadline",
      [
        Alcotest.test_case "unarmed never expires" `Quick test_deadline_unarmed;
        Alcotest.test_case "arms and expires on the fake clock" `Quick test_deadline_expiry;
        Alcotest.test_case "ignores wall-clock jumps" `Quick test_deadline_ignores_wall_clock;
      ] );
    ( "exec.procs",
      [
        Alcotest.test_case "no spec or no worker command raises" `Quick
          test_procs_rejects_unrunnable_plans;
      ] );
    ( "exec.progress",
      [
        Alcotest.test_case "single experiment reports its own plans" `Quick
          test_single_experiment_progress;
      ] );
  ]
