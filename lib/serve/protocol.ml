(* The serve wire protocol: newline-delimited JSON, one value per line,
   in both directions.

   Client -> server (requests):
     {"op":"run","req":R,"id":"E1","seed":42,"scale":"full","render":"full"}
     {"op":"list","req":R}
     {"op":"ping","req":R}
   [req] is an optional client-chosen tag echoed on every frame that
   answers the request, so clients may pipeline; omitted, the server
   assigns consecutive tags per connection.

   Server -> client (frames):
     {"frame":"progress","req":R,"id":I,"completed":C,"total":T,
      "sub":{"label":L,"completed":c,"total":t}?}   zero or more, then
     {"frame":"result","req":R,"id":I,"ok":B,"cached":B,"seconds":S,
      "output":O}                                   exactly one; or
     {"frame":"listing","req":R,"experiments":[{"id":I,"title":T},..]}
     {"frame":"pong","req":R}
     {"frame":"error","req":R,"message":M} *)

type request =
  | Run of {
      id : string;
      seed : int;
      scale : Simulate.Runner.scale;
      render : Simulate.Registry.render;
    }
  | List
  | Ping

type msg =
  | Progress of {
      req : int;
      id : string;
      completed : int;
      total : int;
      sub : (string * int * int) option;
    }
  | Result of {
      req : int;
      id : string;
      ok : bool;
      cached : bool;
      seconds : float;
      output : string;
    }
  | Listing of { req : int; experiments : (string * string) list }
  | Pong of { req : int }
  | Error of { req : int; message : string }

let scale_to_string = function
  | Simulate.Runner.Quick -> "quick"
  | Simulate.Runner.Full -> "full"
  | Simulate.Runner.Large -> "large"

let scale_of_string = function
  | "quick" -> Ok Simulate.Runner.Quick
  | "full" -> Ok Simulate.Runner.Full
  | "large" -> Ok Simulate.Runner.Large
  | s -> Result.Error (Printf.sprintf "unknown scale %S (expected quick|full|large)" s)

let render_to_string = function
  | Simulate.Registry.Full -> "full"
  | Simulate.Registry.Scorecard -> "scorecard"

let render_of_string = function
  | "full" -> Ok Simulate.Registry.Full
  | "scorecard" -> Ok Simulate.Registry.Scorecard
  | s -> Result.Error (Printf.sprintf "unknown render %S (expected full|scorecard)" s)

(* --- encoding --- *)

let num i = Jsonx.Num (float_of_int i)

let encode_request ?req r =
  let tag = match req with Some r -> [ ("req", num r) ] | None -> [] in
  let fields =
    match r with
    | Run { id; seed; scale; render } ->
        [ ("op", Jsonx.Str "run") ] @ tag
        @ [
            ("id", Jsonx.Str id);
            ("seed", num seed);
            ("scale", Jsonx.Str (scale_to_string scale));
            ("render", Jsonx.Str (render_to_string render));
          ]
    | List -> [ ("op", Jsonx.Str "list") ] @ tag
    | Ping -> [ ("op", Jsonx.Str "ping") ] @ tag
  in
  Jsonx.to_string (Jsonx.Obj fields)

let encode_msg m =
  let fields =
    match m with
    | Progress { req; id; completed; total; sub } ->
        [
          ("frame", Jsonx.Str "progress");
          ("req", num req);
          ("id", Jsonx.Str id);
          ("completed", num completed);
          ("total", num total);
        ]
        @ (match sub with
          | None -> []
          | Some (label, c, t) ->
              [
                ( "sub",
                  Jsonx.Obj
                    [ ("label", Jsonx.Str label); ("completed", num c); ("total", num t) ] );
              ])
    | Result { req; id; ok; cached; seconds; output } ->
        [
          ("frame", Jsonx.Str "result");
          ("req", num req);
          ("id", Jsonx.Str id);
          ("ok", Jsonx.Bool ok);
          ("cached", Jsonx.Bool cached);
          ("seconds", Jsonx.Num seconds);
          ("output", Jsonx.Str output);
        ]
    | Listing { req; experiments } ->
        [
          ("frame", Jsonx.Str "listing");
          ("req", num req);
          ( "experiments",
            Jsonx.Arr
              (List.map
                 (fun (id, title) ->
                   Jsonx.Obj [ ("id", Jsonx.Str id); ("title", Jsonx.Str title) ])
                 experiments) );
        ]
    | Pong { req } -> [ ("frame", Jsonx.Str "pong"); ("req", num req) ]
    | Error { req; message } ->
        [ ("frame", Jsonx.Str "error"); ("req", num req); ("message", Jsonx.Str message) ]
  in
  Jsonx.to_string (Jsonx.Obj fields)

(* --- decoding --- *)

let ( let* ) = Result.bind

let field_str j k =
  match Option.bind (Jsonx.member k j) Jsonx.str_opt with
  | Some s -> Ok s
  | None -> Result.Error (Printf.sprintf "missing or non-string field %S" k)

let field_int j k =
  match Option.bind (Jsonx.member k j) Jsonx.int_opt with
  | Some i -> Ok i
  | None -> Result.Error (Printf.sprintf "missing or non-integer field %S" k)

let field_num j k =
  match Option.bind (Jsonx.member k j) Jsonx.num_opt with
  | Some f -> Ok f
  | None -> Result.Error (Printf.sprintf "missing or non-number field %S" k)

let field_bool j k =
  match Option.bind (Jsonx.member k j) Jsonx.bool_opt with
  | Some b -> Ok b
  | None -> Result.Error (Printf.sprintf "missing or non-boolean field %S" k)

let opt_field_int j k =
  match Jsonx.member k j with
  | None -> Ok None
  | Some v -> (
      match Jsonx.int_opt v with
      | Some i -> Ok (Some i)
      | None -> Result.Error (Printf.sprintf "non-integer field %S" k))

let opt_field_str_default j k default =
  match Jsonx.member k j with
  | None -> Ok default
  | Some v -> (
      match Jsonx.str_opt v with
      | Some s -> Ok s
      | None -> Result.Error (Printf.sprintf "non-string field %S" k))

let decode_request line =
  let* j = Jsonx.parse line in
  let* op = field_str j "op" in
  let* req = opt_field_int j "req" in
  let* r =
    match op with
    | "run" ->
        let* id = field_str j "id" in
        let* seed =
          match Jsonx.member "seed" j with
          | None -> Ok 42
          | Some v -> (
              match Jsonx.int_opt v with
              | Some i -> Ok i
              | None -> Result.Error "non-integer field \"seed\"")
        in
        let* scale_s = opt_field_str_default j "scale" "full" in
        let* scale = scale_of_string scale_s in
        let* render_s = opt_field_str_default j "render" "full" in
        let* render = render_of_string render_s in
        Ok (Run { id; seed; scale; render })
    | "list" -> Ok List
    | "ping" -> Ok Ping
    | s -> Result.Error (Printf.sprintf "unknown op %S (expected run|list|ping)" s)
  in
  Ok (req, r)

let decode_msg line =
  let* j = Jsonx.parse line in
  let* frame = field_str j "frame" in
  let* req = field_int j "req" in
  match frame with
  | "progress" ->
      let* id = field_str j "id" in
      let* completed = field_int j "completed" in
      let* total = field_int j "total" in
      let* sub =
        match Jsonx.member "sub" j with
        | None -> Ok None
        | Some s ->
            let* label = field_str s "label" in
            let* c = field_int s "completed" in
            let* t = field_int s "total" in
            Ok (Some (label, c, t))
      in
      Ok (Progress { req; id; completed; total; sub })
  | "result" ->
      let* id = field_str j "id" in
      let* ok = field_bool j "ok" in
      let* cached = field_bool j "cached" in
      let* seconds = field_num j "seconds" in
      let* output = field_str j "output" in
      Ok (Result { req; id; ok; cached; seconds; output })
  | "listing" ->
      let* exps =
        match Jsonx.member "experiments" j with
        | Some (Jsonx.Arr items) ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let* id = field_str item "id" in
                let* title = field_str item "title" in
                Ok ((id, title) :: acc))
              (Ok []) items
            |> Result.map List.rev
        | _ -> Result.Error "missing or non-array field \"experiments\""
      in
      Ok (Listing { req; experiments = exps })
  | "pong" -> Ok (Pong { req })
  | "error" ->
      let* message = field_str j "message" in
      Ok (Error { req; message })
  | s -> Result.Error (Printf.sprintf "unknown frame %S" s)
