type state = { mutable enabled : bool; mutable rebuilds : int; mutable declined : int }

type t = { model : Core.Dynamic.t; st : state }

let wrap ~clock ~on_call inner =
  let module D = Core.Dynamic in
  let st = { enabled = false; rebuilds = 0; declined = 0 } in
  let timed name f =
    if not st.enabled then f ()
    else begin
      let t0 = clock () in
      let r = f () in
      on_call name t0 (clock ());
      r
    end
  in
  let deltas ~birth ~death =
    let ok = timed "dynamic.deltas" (fun () -> D.deltas inner ~birth ~death) in
    if st.enabled && not ok then st.declined <- st.declined + 1;
    ok
  in
  (* [delta_size] is O(1) and advisory, so probing it once here only
     asks whether the model offers an estimate at all. *)
  let delta_size =
    match D.delta_size inner with
    | Some _ -> Some (fun () -> Option.value ~default:0 (D.delta_size inner))
    | None -> None
  in
  let model =
    D.make ~n:(D.n inner) ~expected_edges:(D.expected_edges inner)
      ?deltas:(if D.has_deltas inner then Some deltas else None)
      ?delta_size
      ~fill_edges:(fun buf -> timed "dynamic.fill_edges" (fun () -> D.fill_edges inner buf))
      ~reset:(fun rng -> timed "dynamic.reset" (fun () -> D.reset inner rng))
      ~step:(fun () -> timed "dynamic.step" (fun () -> D.step inner))
      ~iter_edges:(fun f ->
        if st.enabled then st.rebuilds <- st.rebuilds + 1;
        timed "dynamic.iter_edges" (fun () -> D.iter_edges inner f))
      ()
  in
  { model; st }

let model t = t.model

let set_enabled t on = t.st.enabled <- on

let rebuilds t = t.st.rebuilds

let deltas_declined t = t.st.declined
