type experiment = {
  id : string;
  title : string;
  claim : string;
  run : sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list;
  plan : (rng:Prng.Rng.t -> scale:Runner.scale -> Trial_plan.t) option;
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

module type PLANNED = sig
  val id : string
  val title : string
  val claim : string
  val plan : rng:Prng.Rng.t -> scale:Runner.scale -> Trial_plan.t
  val assess : Stats.Table.t list -> Assess.check list
end

let wrap (module E : EXPERIMENT) =
  { id = E.id; title = E.title; claim = E.claim; run = E.run; plan = None; assess = E.assess }

type render = Full | Scorecard

(* ---- job payloads over the wire ------------------------------------- *)

module B = Exec.Spec.Buf

type payload =
  | Experiment of { id : string; bits : int64 * int64; scale : Runner.scale; render : render }
  | Trial of { id : string; bits : int64 * int64; scale : Runner.scale; shard : int }

(* One codec for both granularities of fleet job. Both kinds carry what
   a worker needs to rebuild the parent's computation: the experiment
   id, the generator's state bits (an experiment's generator, or a
   planned experiment's captured *before* plan construction, so the
   worker's rebuilt generator performs the same splits) and the scale.
   A whole experiment 'X' adds its render mode; a trial shard 'T' adds
   its index into the deterministic [Trial_plan.shards] list. *)
let encode_payload p =
  let tag, id, (state, gamma), scale, last =
    match p with
    | Experiment { id; bits; scale; render } ->
        ('X', id, bits, scale, match render with Full -> 0 | Scorecard -> 1)
    | Trial { id; bits; scale; shard } -> ('T', id, bits, scale, shard)
  in
  let b = Buffer.create 64 in
  Buffer.add_char b tag;
  B.add_string b id;
  B.add_int64 b state;
  B.add_int64 b gamma;
  B.add_int b (Runner.scale_to_int scale);
  B.add_int b last;
  Buffer.contents b

let decode_payload s =
  let r = B.reader s in
  let tag = B.char r in
  if tag <> 'X' && tag <> 'T' then raise (B.Corrupt (Printf.sprintf "payload: bad tag %C" tag));
  let id = B.string r in
  let state = B.int64 r in
  let gamma = B.int64 r in
  let bits = (state, gamma) in
  let scale =
    let n = B.int r in
    try Runner.scale_of_int n
    with Invalid_argument _ -> raise (B.Corrupt (Printf.sprintf "payload: bad scale %d" n))
  in
  let p =
    if tag = 'T' then Trial { id; bits; scale; shard = B.int r }
    else
      match B.int r with
      | 0 -> Experiment { id; bits; scale; render = Full }
      | 1 -> Experiment { id; bits; scale; render = Scorecard }
      | n -> raise (B.Corrupt (Printf.sprintf "payload: bad render %d" n))
  in
  if not (B.at_end r) then raise (B.Corrupt "payload: trailing bytes");
  p

let trial_spec ~id ~bits ~scale shard =
  {
    Exec.Spec.id = Printf.sprintf "%s.t%d" id shard;
    payload = encode_payload (Trial { id; bits; scale; shard });
    decode = Trial_plan.decode_result;
  }

(* Run [f] with the metric counters suppressed, restoring the previous
   state. Worker-side plan *reconstruction* runs under this: the parent
   already charged the construction-time work (rng splits, sizing
   builds) when it built the plan once, so charging it again in every
   worker would make --procs metrics diverge from --jobs. *)
let without_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.disable ();
  Fun.protect ~finally:(fun () -> if was then Obs.Metrics.enable ()) f

(* The run derived for a planned experiment: capture the generator's
   bits, build the plan (advancing the generator exactly as the
   closure-based run would), and execute it as one spec'd Exec plan
   over the shards — which is what lets a *single* experiment shard
   across a --procs fleet instead of degrading to the domain pool. *)
let planned_run ~id ~make_plan ~sched ~rng ~scale =
  let bits = Prng.Rng.state_bits rng in
  let p = make_plan ~rng ~scale in
  Trial_plan.execute ~spec:(trial_spec ~id ~bits ~scale) ~sched p

let wrap_planned (module P : PLANNED) =
  {
    id = P.id;
    title = P.title;
    claim = P.claim;
    run = (fun ~sched ~rng ~scale -> planned_run ~id:P.id ~make_plan:P.plan ~sched ~rng ~scale);
    plan = Some P.plan;
    assess = P.assess;
  }

let all =
  [
    wrap_planned (module E01_edge_meg_scaling);
    wrap (module E02_edge_meg_crossover);
    wrap (module E03_stationarity_conditions);
    wrap (module E04_node_meg);
    wrap (module E05_waypoint_density);
    wrap_planned (module E06_waypoint_flooding);
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
  List.find_opt (fun e -> String.lowercase_ascii e.id = target) all

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
let rendered_outcome ?clock ~render ~sched ~rng ~scale e =
  let now () = match clock with Some f -> f () | None -> 0. in
  Obs.Metrics.incr c_experiments;
  if Obs.Trace.enabled () then Obs.Trace.emit "exp.start" [ ("id", Str e.id) ];
  let started = now () in
  (* The scope sink rides the job's domain: nested trial plans run
     sequentially inside a pool job (see Exec), so every counter
     increment of this experiment — and only this experiment — lands
     in its [metrics]. *)
  let (output, ok), metrics =
    Obs.Metrics.with_scope (fun () -> render_one ~render ~sched ~rng ~scale e)
  in
  if Obs.Trace.enabled () then
    Obs.Trace.emit "exp.end" [ ("id", Str e.id); ("ok", Int (if ok then 1 else 0)) ];
  (output, ok, now () -. started, metrics)

(* The one seeding scheme for *single-experiment* entry points: the CLI
   [run <id> --seed S] seeds the generator as [Prng.Rng.of_seed seed]
   directly (no registry substream), and a serve [run] request must do
   exactly the same, or service responses would not be byte-identical
   to the batch CLI. Keeping both on this helper makes that contract a
   single point of truth. *)
let single_outcome ?clock ?(render = Full) ?(sched = Exec.sequential) ~seed ~scale e =
  rendered_outcome ?clock ~render ~sched ~rng:(Prng.Rng.of_seed seed) ~scale e

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

(* The worker side of every fleet job. A whole experiment runs through
   [rendered_outcome] on this process's [--jobs] domains, so the bytes
   it returns are the bytes the parent would have rendered in-process.
   A trial shard rebuilds its experiment's plan and runs just that
   shard: the trial work (substream derivations, flooding counters)
   runs with metrics live — those deltas are this shard's contribution,
   absorbed by the parent — while reconstruction is suppressed (see
   [without_metrics]). *)
let dispatch ~id:spec_id ~payload =
  let lookup id =
    match find id with
    | Some e -> e
    | None -> failwith (Printf.sprintf "Registry.dispatch: unknown experiment %S" id)
  in
  match decode_payload payload with
  | Experiment { id; bits; scale; render } ->
      if spec_id <> id then
        failwith (Printf.sprintf "Registry.dispatch: spec id %S names experiment %S" spec_id id);
      let output, ok, seconds, metrics =
        rendered_outcome ~clock:Obs.Clock.now ~render
          ~sched:(Exec.of_int (Exec.Pool.workers ()))
          ~rng:(Prng.Rng.of_state_bits bits) ~scale (lookup id)
      in
      let b = Buffer.create (String.length output + 64) in
      B.add_string b output;
      B.add_int b (if ok then 1 else 0);
      B.add_float b seconds;
      B.add_pairs b metrics;
      Buffer.contents b
  | Trial { id; bits; scale; shard } -> (
      let expected = Printf.sprintf "%s.t%d" id shard in
      if spec_id <> expected then
        failwith (Printf.sprintf "Registry.dispatch: spec id %S names shard %S" spec_id expected);
      match (lookup id).plan with
      | None -> failwith (Printf.sprintf "Registry.dispatch: %S has no trial plan" id)
      | Some make_plan ->
          let p =
            without_metrics (fun () -> make_plan ~rng:(Prng.Rng.of_state_bits bits) ~scale)
          in
          let shards = Trial_plan.shards p in
          if shard < 0 || shard >= Array.length shards then
            failwith
              (Printf.sprintf "Registry.dispatch: shard %d out of range (%d shards)" shard
                 (Array.length shards));
          Trial_plan.encode_result (Trial_plan.run_shard p shards.(shard)))

let run_each ?(render = Full) ?(sched = Exec.sequential) ?clock ~rng ~scale () =
  let exps = Array.of_list all in
  (* Exactly one side splits each experiment's substream: the job when
     it runs in-process, or [spec] in the parent when the fleet runs it
     (the worker only restores the state bits), so the rng.splits total
     is identical at every --jobs and --procs setting. *)
  let job i =
    let e = exps.(i) in
    let output, ok, seconds, metrics =
      rendered_outcome ?clock ~render ~sched ~rng:(experiment_rng rng i) ~scale e
    in
    { experiment = e; output; ok; seconds; metrics }
  in
  let spec i =
    let e = exps.(i) in
    let bits = Prng.Rng.state_bits (experiment_rng rng i) in
    {
      Exec.Spec.id = e.id;
      payload = encode_payload (Experiment { id = e.id; bits; scale; render });
      decode = decode_outcome e;
    }
  in
  Exec.run sched (Exec.plan_spec ~jobs:(Array.length exps) ~job ~spec ~reduce:Array.to_list)

let run_one ?(out = stdout) ?(sched = Exec.sequential) ~rng ~scale e =
  let output, ok = render_one ~render:Full ~sched ~rng ~scale e in
  output_string out output;
  flush out;
  ok

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
