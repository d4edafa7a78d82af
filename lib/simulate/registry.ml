type experiment = {
  id : string;
  title : string;
  claim : string;
  run : sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list;
  assess : Stats.Table.t list -> Assess.check list;
}

module type EXPERIMENT = sig
  val id : string
  val title : string
  val claim : string
  val run :
    sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list
  val assess : Stats.Table.t list -> Assess.check list
end

let wrap (module E : EXPERIMENT) =
  { id = E.id; title = E.title; claim = E.claim; run = E.run; assess = E.assess }

type render = Full | Scorecard

(* ---- job payloads over the wire ------------------------------------- *)

module B = Exec.Spec.Buf

type payload = { id : string; bits : int64 * int64; scale : Runner.scale; render : render }

(* The fleet job: everything a worker needs to rebuild the parent's
   computation. It carries the generator's state bits rather than a
   seed, so any generator can cross the process boundary. The leading
   'X' tag keeps the bytes of journals written by earlier builds. *)
let encode_payload { id; bits = state, gamma; scale; render } =
  let b = Buffer.create 64 in
  Buffer.add_char b 'X';
  B.add_string b id;
  B.add_int64 b state;
  B.add_int64 b gamma;
  B.add_int b (Runner.scale_to_int scale);
  B.add_int b (match render with Full -> 0 | Scorecard -> 1);
  Buffer.contents b

let decode_payload s =
  let r = B.reader s in
  let tag = B.char r in
  if tag <> 'X' then raise (B.Corrupt (Printf.sprintf "payload: bad tag %C" tag));
  let id = B.string r in
  let state = B.int64 r in
  let gamma = B.int64 r in
  let scale =
    let n = B.int r in
    try Runner.scale_of_int n
    with Invalid_argument _ -> raise (B.Corrupt (Printf.sprintf "payload: bad scale %d" n))
  in
  let render =
    match B.int r with
    | 0 -> Full
    | 1 -> Scorecard
    | n -> raise (B.Corrupt (Printf.sprintf "payload: bad render %d" n))
  in
  if not (B.at_end r) then raise (B.Corrupt "payload: trailing bytes");
  { id; bits = (state, gamma); scale; render }

let all =
  [
    wrap (module E01_edge_meg_scaling);
    wrap (module E02_edge_meg_crossover);
    wrap (module E03_stationarity_conditions);
    wrap (module E04_node_meg);
    wrap (module E05_waypoint_density);
    wrap (module E06_waypoint_flooding);
    wrap (module E07_waypoint_mixing);
    wrap (module E08_random_paths);
    wrap (module E09_augmented_grid);
    wrap (module E10_random_walk_geometric);
    wrap (module E11_push_protocol);
    wrap (module E12_phases);
    wrap (module E13_gossip);
    wrap (module E14_dynamic_walk);
    wrap (module E15_worst_case);
    wrap (module E16_disk_region);
    wrap (module E17_epoch_slack);
    wrap (module E18_discrete_waypoint);
  ]

let find id =
  let target = String.lowercase_ascii id in
  List.find_opt (fun (e : experiment) -> String.lowercase_ascii e.id = target) all

(* The one experiment-seeding scheme, shared by [run_each] (hence
   run_all / verify / Export.export_all): experiment [i] always draws
   from substream 1000 + i of the top-level generator, so every entry
   point produces the same numbers for the same seed, whatever subset
   of experiments it runs and in whatever order. *)
let experiment_rng rng i = Prng.Rng.substream rng (1000 + i)

(* Render one experiment to a string. Parallel callers buffer rather
   than print so that concurrent experiments cannot interleave output:
   emission order (and therefore every byte) is decided by the caller,
   not the scheduler. *)
let render_one ?(render = Full) ~sched ~rng ~scale (e : experiment) =
  let buf = Buffer.create 4096 in
  let tables = e.run ~sched ~rng ~scale in
  (match render with
  | Full ->
      Buffer.add_string buf (Printf.sprintf "---- %s: %s ----\n" e.id e.title);
      Buffer.add_string buf (Printf.sprintf "claim: %s\n\n" e.claim);
      List.iter
        (fun t ->
          Buffer.add_string buf (Stats.Table.render t);
          Buffer.add_char buf '\n')
        tables
  | Scorecard -> ());
  let checks = e.assess tables in
  Buffer.add_string buf
    (Stats.Table.render (Assess.render ~title:(e.id ^ " scorecard") checks));
  Buffer.add_char buf '\n';
  (Buffer.contents buf, Assess.all_passed checks)

type outcome = {
  experiment : experiment;
  output : string;
  ok : bool;
  seconds : float;
  metrics : (string * int) list;
}

let c_experiments = Obs.Metrics.counter "sim.experiments"

(* The complete per-experiment job body, shared verbatim by the
   in-process schedulers and by fleet workers ([dispatch], below):
   counting, exp.start / exp.end bracketing, and the attribution scope
   all happen wherever the experiment actually runs, so counters and
   trace events are identical at any [--jobs] or [--procs] setting. *)
let rendered_outcome ?clock ~render ~sched ~rng ~scale (e : experiment) =
  let now () = match clock with Some f -> f () | None -> 0. in
  Obs.Metrics.incr c_experiments;
  if Obs.Trace.enabled () then Obs.Trace.emit "exp.start" [ ("id", Str e.id) ];
  let started = now () in
  (* The scope sink rides the job's domain and the pool domains its
     nested plans run on (see Exec), so every counter increment of
     this experiment — and only this experiment — lands in its
     [metrics]. *)
  let (output, ok), metrics =
    Obs.Metrics.with_scope (fun () -> render_one ~render ~sched ~rng ~scale e)
  in
  if Obs.Trace.enabled () then
    Obs.Trace.emit "exp.end" [ ("id", Str e.id); ("ok", Int (if ok then 1 else 0)) ];
  (output, ok, now () -. started, metrics)

(* An outcome's wire form: rendered output, verdict, duration (worker
   wall clock — the only nondeterministic field, and one that never
   reaches deterministic output) and the attributed counter deltas. *)
let decode_outcome experiment raw =
  let r = B.reader raw in
  let output = B.string r in
  let ok = B.int r <> 0 in
  let seconds = B.float r in
  let metrics = B.pairs r in
  { experiment; output; ok; seconds; metrics }

(* The worker side of every fleet job: the experiment runs through
   [rendered_outcome] on this process's [--jobs] domains, so the bytes
   it returns are the bytes the parent would have rendered in-process. *)
let dispatch ~id:spec_id ~payload =
  let { id; bits; scale; render } = decode_payload payload in
  if spec_id <> id then
    failwith (Printf.sprintf "Registry.dispatch: spec id %S names experiment %S" spec_id id);
  let e =
    match find id with
    | Some e -> e
    | None -> failwith (Printf.sprintf "Registry.dispatch: unknown experiment %S" id)
  in
  let output, ok, seconds, metrics =
    rendered_outcome ~clock:Obs.Clock.now ~render
      ~sched:(Exec.of_int (Exec.Pool.workers ()))
      ~rng:(Prng.Rng.of_state_bits bits) ~scale e
  in
  let b = Buffer.create (String.length output + 64) in
  B.add_string b output;
  B.add_int b (if ok then 1 else 0);
  B.add_float b seconds;
  B.add_pairs b metrics;
  Buffer.contents b

(* The one unit of work, for every entry point: a plan with one job per
   experiment. In-process the job renders its experiment; on a fleet its
   spec ships the same computation as a payload. Exactly one side calls
   [rng_of i]: the job when it runs in-process, or [spec] in the parent
   when the fleet runs it (the worker only restores the state bits), so
   the rng.splits total is identical at every --jobs and --procs
   setting. *)
let run_experiments ?clock ~render ~sched ~scale ~rng_of (exps : experiment array) =
  let job i =
    let e = exps.(i) in
    let output, ok, seconds, metrics =
      rendered_outcome ?clock ~render ~sched ~rng:(rng_of i) ~scale e
    in
    { experiment = e; output; ok; seconds; metrics }
  in
  let spec i =
    let e = exps.(i) in
    let bits = Prng.Rng.state_bits (rng_of i) in
    {
      Exec.Spec.id = e.id;
      payload = encode_payload { id = e.id; bits; scale; render };
      decode = decode_outcome e;
    }
  in
  Exec.run sched (Exec.plan_spec ~jobs:(Array.length exps) ~job ~spec ~reduce:Fun.id)

let run_each ?(render = Full) ?(sched = Exec.sequential) ?clock ~rng ~scale () =
  Array.to_list
    (run_experiments ?clock ~render ~sched ~scale ~rng_of:(experiment_rng rng)
       (Array.of_list all))

(* The one seeding scheme for *single-experiment* entry points: the CLI
   [run <id> --seed S] seeds the generator as [Prng.Rng.of_seed seed]
   directly (no registry substream), and a serve [run] request must do
   exactly the same, or service responses would not be byte-identical
   to the batch CLI. Keeping both on this helper makes that contract a
   single point of truth. *)
let single_outcome ?clock ?(render = Full) ?(sched = Exec.sequential) ~seed ~scale e =
  let o =
    (run_experiments ?clock ~render ~sched ~scale ~rng_of:(fun _ -> Prng.Rng.of_seed seed)
       [| e |]).(0)
  in
  (o.output, o.ok, o.seconds, o.metrics)

let run_one ?(out = stdout) ?(sched = Exec.sequential) ~rng ~scale e =
  let o = (run_experiments ~render:Full ~sched ~scale ~rng_of:(fun _ -> rng) [| e |]).(0) in
  output_string out o.output;
  flush out;
  o.ok

let summary_table verdicts =
  let summary =
    Stats.Table.create ~title:"Reproduction summary"
      ~columns:[ "experiment"; "verdict"; "claim" ]
  in
  List.iter
    (fun ((e : experiment), ok) ->
      Stats.Table.add_row summary
        [ Text e.id; Text (if ok then "PASS" else "FAIL"); Text e.title ])
    verdicts;
  summary

let run_all_timed ?(out = stdout) ?sched ?clock ~rng ~scale () =
  let results = run_each ~render:Full ?sched ?clock ~rng ~scale () in
  List.iter (fun o -> output_string out o.output) results;
  let verdicts = List.map (fun o -> (o.experiment, o.ok)) results in
  Printf.fprintf out "%s\n" (Stats.Table.render (summary_table verdicts));
  flush out;
  (List.for_all snd verdicts, results)

let run_all ?out ?sched ~rng ~scale () = fst (run_all_timed ?out ?sched ~rng ~scale ())

let verify ?(out = stdout) ?sched ~rng ~scale () =
  let results = run_each ~render:Scorecard ?sched ~rng ~scale () in
  List.iter (fun o -> output_string out o.output) results;
  flush out;
  List.length (List.filter (fun o -> not o.ok) results)
