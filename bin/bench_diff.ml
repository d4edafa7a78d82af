(* bench_diff: compare two machine-readable bench baselines.

   Usage:
     dune exec bin/bench_diff.exe -- OLD.json NEW.json \
       [--threshold PCT] [--gate NAME]...

   Reads two BENCH_*.json files (schema dyngraph-bench/1 through /7,
   parsed with Serve.Jsonx; /5 adds a "topology" object — worker
   domains and processes of the claim phase — shown in the header
   lines; /6 adds a "service" array of serve-daemon throughput/latency
   rows, one per client-concurrency level; /7 baselines may also carry
   multi-executor rows, which are skipped),
   prints per-claim wall-clock seconds and per-micro ns/run side by
   side with the delta as a percentage (positive = slower), and flags
   claim pass/fail transitions. Schema /3 baselines additionally carry
   a per-claim "metrics" object of deterministic work counters; when
   either file has them, their per-counter totals are diffed in a
   report-only table (counter changes mean the computation itself
   changed, so they never trip --threshold, which is about time).
   Service rows are likewise report-only — daemon throughput is too
   load-sensitive to gate — and a concurrency level present only in
   the NEW file renders as "new" with no delta.
   Without --threshold the run is report-only and always exits 0; with
   --threshold it exits 1 if any timing regression exceeds PCT percent
   or any claim flips from pass to fail.

   --gate NAME (repeatable) restricts the threshold to the named
   claims / micro-benchmarks: only their regressions can trip it,
   everything else stays report-only — the shape for CI, where a few
   stable hot-path micros gate and the noisier full table is for
   reading. Micro names match with or without their "dyngraph/" group
   prefix. A gated name that is not in both files (dropped benchmark,
   renamed claim, or one that first appears in NEW) is itself a
   failure: a gate with nothing to compare against does not gate, and
   that is worse than a red build. Pass/fail flips of any claim remain
   fatal regardless of gating. *)

module J = Serve.Jsonx

exception Parse of string

let str_or default j = Option.value ~default (Option.bind j J.str_opt)

let num_or default j = Option.value ~default (Option.bind j J.num_opt)

let bool_or default j = Option.value ~default (Option.bind j J.bool_opt)

(* --- baseline extraction --- *)

type claim = { id : string; passed : bool; seconds : float; metrics : (string * float) list }

type micro = { name : string; ns_per_run : float; r_square : float }

(* One serve-daemon load level, keyed by client count. The daemon has
   one executor; schema /7 baselines also carry rows measured at 2 and
   4 executors, which are skipped on load. Rows without an executor
   field (schema /6) measured one executor. *)
type service = {
  sv_clients : int;
  sv_completed : int;
  sv_errors : int;
  sv_rps : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
}

type baseline = {
  path : string;
  schema : string;
  date : string;
  git_rev : string;
  host : string;
  topology : string;
      (* rendered "jobs J procs P" from the schema /5 topology object;
         "-" for older baselines *)
  claims : claim list;
  micros : micro list;
  services : service list;
}

let load path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let contents = really_input_string ic size in
  close_in ic;
  let j =
    match J.parse contents with
    | Ok j -> j
    | Error msg -> raise (Parse (Printf.sprintf "%s: %s" path msg))
  in
  let claims =
    match J.member "claims" j with
    | Some (J.Arr l) ->
        List.map
          (fun c ->
            let metrics =
              match J.member "metrics" c with
              | Some (J.Obj fields) ->
                  List.filter_map
                    (fun (k, v) -> match v with J.Num f -> Some (k, f) | _ -> None)
                    fields
              | _ -> []
            in
            {
              id = str_or "?" (J.member "id" c);
              passed = bool_or false (J.member "passed" c);
              seconds = num_or nan (J.member "seconds" c);
              metrics;
            })
          l
    | _ -> []
  in
  let micros =
    match J.member "micro" j with
    | Some (J.Arr l) ->
        List.map
          (fun m ->
            {
              name = str_or "?" (J.member "name" m);
              ns_per_run = num_or nan (J.member "ns_per_run" m);
              r_square = num_or nan (J.member "r_square" m);
            })
          l
    | _ -> []
  in
  let services =
    match J.member "service" j with
    | Some (J.Arr l) ->
        List.filter_map
          (fun r ->
            if num_or 1. (J.member "executors" r) <> 1. then None
            else
              Some
                {
                  sv_clients = int_of_float (num_or nan (J.member "clients" r));
                  sv_completed = int_of_float (num_or 0. (J.member "completed" r));
                  sv_errors = int_of_float (num_or 0. (J.member "errors" r));
                  sv_rps = num_or nan (J.member "rps" r);
                  sv_p50_ms = num_or nan (J.member "p50_ms" r);
                  sv_p99_ms = num_or nan (J.member "p99_ms" r);
                })
          l
    | _ -> []
  in
  let topology =
    match J.member "topology" j with
    | Some t ->
        Printf.sprintf "jobs %d procs %d"
          (int_of_float (num_or nan (J.member "jobs" t)))
          (int_of_float (num_or nan (J.member "procs" t)))
    | None -> "-"
  in
  {
    path;
    schema = str_or "?" (J.member "schema" j);
    date = str_or "?" (J.member "date" j);
    git_rev = str_or "-" (J.member "git_rev" j);
    host = str_or "-" (J.member "hostname" j);
    topology;
    claims;
    micros;
    services;
  }

(* --- comparison --- *)

let delta_pct old_v new_v =
  if Float.is_finite old_v && Float.is_finite new_v && old_v > 0. then
    Some (100. *. (new_v -. old_v) /. old_v)
  else None

let delta_cell = function
  | Some d -> Stats.Table.Text (Printf.sprintf "%+.1f%%" d)
  | None -> Stats.Table.Missing

let () =
  let files = ref [] in
  let threshold = ref None in
  let gates = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t -> threshold := Some t
        | None ->
            prerr_endline "bench_diff: --threshold expects a percentage";
            exit 2);
        parse_args rest
    | "--gate" :: v :: rest ->
        gates := v :: !gates;
        parse_args rest
    | arg :: rest ->
        files := arg :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* A name is gated if it (or, for micros, its group-stripped form)
     was named by --gate; with no --gate everything gates, preserving
     the original all-or-nothing threshold. [gates_seen] records which
     gates actually matched a compared row. *)
  let gates_seen = Hashtbl.create 8 in
  let gated name =
    match !gates with
    | [] -> true
    | l ->
        let stripped =
          match String.index_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name
        in
        let hit = List.filter (fun g -> g = name || g = stripped) l in
        List.iter (fun g -> Hashtbl.replace gates_seen g ()) hit;
        hit <> []
  in
  let old_b, new_b =
    match List.rev !files with
    | [ o; n ] -> (
        try (load o, load n)
        with
        | Sys_error msg ->
            prerr_endline ("bench_diff: " ^ msg);
            exit 2
        | Parse msg ->
            prerr_endline ("bench_diff: JSON parse error in " ^ msg);
            exit 2)
    | _ ->
        prerr_endline "usage: bench_diff OLD.json NEW.json [--threshold PCT]";
        exit 2
  in
  Printf.printf "old: %s  (%s, %s, rev %s, host %s, %s)\n" old_b.path old_b.schema old_b.date
    old_b.git_rev old_b.host old_b.topology;
  Printf.printf "new: %s  (%s, %s, rev %s, host %s, %s)\n\n" new_b.path new_b.schema new_b.date
    new_b.git_rev new_b.host new_b.topology;
  let worst = ref neg_infinity in
  let flipped = ref [] in
  let claims_table =
    Stats.Table.create ~title:"claim tables (wall-clock seconds)"
      ~columns:[ "claim"; "old s"; "new s"; "delta"; "status" ]
  in
  List.iter
    (fun (oc : claim) ->
      match List.find_opt (fun (nc : claim) -> nc.id = oc.id) new_b.claims with
      | None -> Stats.Table.add_row claims_table [ Text oc.id; Fixed (oc.seconds, 3); Missing; Missing; Text "missing" ]
      | Some nc ->
          let d = delta_pct oc.seconds nc.seconds in
          (match d with Some d when gated oc.id && d > !worst -> worst := d | _ -> ());
          let status =
            match (oc.passed, nc.passed) with
            | true, false ->
                flipped := oc.id :: !flipped;
                "PASS->FAIL"
            | false, true -> "fail->pass"
            | true, true -> "pass"
            | false, false -> "fail"
          in
          Stats.Table.add_row claims_table
            [ Text oc.id; Fixed (oc.seconds, 3); Fixed (nc.seconds, 3); delta_cell d; Text status ])
    old_b.claims;
  List.iter
    (fun (nc : claim) ->
      if not (List.exists (fun (oc : claim) -> oc.id = nc.id) old_b.claims) then
        Stats.Table.add_row claims_table
          [ Text nc.id; Missing; Fixed (nc.seconds, 3); Missing; Text "new" ])
    new_b.claims;
  print_string (Stats.Table.render claims_table);
  if old_b.micros <> [] || new_b.micros <> [] then begin
    let micro_table =
      Stats.Table.create ~title:"micro-benchmarks (ns/run)"
        ~columns:[ "benchmark"; "old ns"; "new ns"; "delta"; "fit" ]
    in
    (* A micro whose OLS fit has r² < 0.5 is mostly noise: its delta
       column is not evidence of anything, so say so in the row rather
       than let a ±40% swing read as a regression or a win. Flagged
       from either side's fit — a baseline recorded as noise stays
       suspect even if today's run happened to fit well. *)
    let fit_cell (om : micro option) (nm : micro option) =
      let low = function
        | Some m -> Float.is_finite m.r_square && m.r_square < 0.5
        | None -> false
      in
      if low om || low nm then Stats.Table.Text "low-r²" else Stats.Table.Text ""
    in
    List.iter
      (fun (om : micro) ->
        match List.find_opt (fun (nm : micro) -> nm.name = om.name) new_b.micros with
        | None ->
            Stats.Table.add_row micro_table
              [ Text om.name; Fixed (om.ns_per_run, 1); Missing; Text "missing";
                fit_cell (Some om) None ]
        | Some nm ->
            let d = delta_pct om.ns_per_run nm.ns_per_run in
            (match d with Some d when gated om.name && d > !worst -> worst := d | _ -> ());
            Stats.Table.add_row micro_table
              [ Text om.name; Fixed (om.ns_per_run, 1); Fixed (nm.ns_per_run, 1); delta_cell d;
                fit_cell (Some om) (Some nm) ])
      old_b.micros;
    List.iter
      (fun (nm : micro) ->
        if not (List.exists (fun (om : micro) -> om.name = nm.name) old_b.micros) then
          Stats.Table.add_row micro_table
            [ Text nm.name; Missing; Fixed (nm.ns_per_run, 1); Text "new";
              fit_cell None (Some nm) ])
      new_b.micros;
    print_newline ();
    print_string (Stats.Table.render micro_table)
  end;
  (* Work-counter totals (schema /3), aggregated over all claims.
     Report-only: a changed counter means the computation did a
     different amount of work — worth seeing next to any timing delta,
     but not a regression by itself. *)
  let totals b =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (c : claim) ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
          c.metrics)
      b.claims;
    tbl
  in
  let old_totals = totals old_b and new_totals = totals new_b in
  if Hashtbl.length old_totals > 0 || Hashtbl.length new_totals > 0 then begin
    let names = Hashtbl.create 32 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) old_totals;
    Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) new_totals;
    let sorted = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) names []) in
    let metrics_table =
      Stats.Table.create ~title:"work counters (total over claims, report-only)"
        ~columns:[ "counter"; "old"; "new"; "delta" ]
    in
    List.iter
      (fun name ->
        let o = Hashtbl.find_opt old_totals name and n = Hashtbl.find_opt new_totals name in
        let cell = function Some v -> Stats.Table.Int (int_of_float v) | None -> Stats.Table.Missing in
        let d = match (o, n) with Some o, Some n -> delta_pct o n | _ -> None in
        Stats.Table.add_row metrics_table [ Text name; cell o; cell n; delta_cell d ])
      sorted;
    print_newline ();
    print_string (Stats.Table.render metrics_table)
  end;
  (* Service tier, report-only: daemon throughput depends on machine
     load far more than the deterministic claim tables do, so
     rps/latency deltas are for reading, never for --threshold. First
     appearance of a clients level (including the whole table, on the
     first service-carrying baseline) renders as "new". *)
  if old_b.services <> [] || new_b.services <> [] then begin
    let service_table =
      Stats.Table.create ~title:"service tier (serve daemon, report-only)"
        ~columns:
          [ "clients"; "old rps"; "new rps"; "delta"; "old p99 ms"; "new p99 ms"; "delta";
            "status" ]
    in
    let status (r : service) = if r.sv_errors > 0 then "ERRORS" else "ok" in
    let same_level (a : service) (b : service) = a.sv_clients = b.sv_clients in
    List.iter
      (fun (os : service) ->
        match List.find_opt (fun (ns : service) -> same_level ns os) new_b.services with
        | None ->
            Stats.Table.add_row service_table
              [ Int os.sv_clients; Fixed (os.sv_rps, 1); Missing; Missing;
                Fixed (os.sv_p99_ms, 1); Missing; Missing; Text "missing" ]
        | Some ns ->
            Stats.Table.add_row service_table
              [ Int os.sv_clients; Fixed (os.sv_rps, 1); Fixed (ns.sv_rps, 1);
                delta_cell (delta_pct os.sv_rps ns.sv_rps); Fixed (os.sv_p99_ms, 1);
                Fixed (ns.sv_p99_ms, 1);
                delta_cell (delta_pct os.sv_p99_ms ns.sv_p99_ms); Text (status ns) ])
      old_b.services;
    List.iter
      (fun (ns : service) ->
        if not (List.exists (fun (os : service) -> same_level os ns) old_b.services) then
          Stats.Table.add_row service_table
            [ Int ns.sv_clients; Missing; Fixed (ns.sv_rps, 1); Missing; Missing;
              Fixed (ns.sv_p99_ms, 1); Missing; Text ("new " ^ status ns) ])
      new_b.services;
    print_newline ();
    print_string (Stats.Table.render service_table)
  end;
  if Float.is_finite !worst then
    Printf.printf "\nworst %sregression: %+.1f%%\n"
      (if !gates = [] then "" else "gated ")
      !worst;
  List.iter (Printf.printf "claim %s flipped from pass to fail\n") (List.rev !flipped);
  let missing_gates = List.filter (fun g -> not (Hashtbl.mem gates_seen g)) (List.rev !gates) in
  List.iter (Printf.printf "gated name not found in comparison: %s\n") missing_gates;
  match !threshold with
  | None -> ()
  | Some t ->
      if !flipped <> [] || missing_gates <> [] || (Float.is_finite !worst && !worst > t) then begin
        Printf.printf "threshold %.1f%% exceeded\n" t;
        exit 1
      end
      else Printf.printf "within threshold %.1f%%\n" t
