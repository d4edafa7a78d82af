(* Structured trace emitter: a bounded in-memory ring of events, flushed
   as JSONL.

   Determinism: an event's identity is (path, seq, name, fields) — its
   coordinates in the plan/job tree maintained by Ambient plus a
   per-frame sequence number — all of which depend only on program
   structure. The wall timestamp is an annotation. Flushing sorts by
   (path, seq), so as long as the ring did not overflow, two runs of the
   same seeded computation produce identical JSONL modulo the "wall"
   field, whatever the worker count.

   The ring is guarded by one mutex. Events are deliberately coarse
   (trial boundaries, flooding milestones, cap hits — not per-edge or
   per-step), so the lock is cold; the disabled path is a single atomic
   load in {!enabled}, and call sites guard field-list construction
   behind it. *)

type field = Int of int | Float of float | Str of string

type event = {
  name : string;
  path : int array;
  seq : int;
  wall : float;
  fields : (string * field) list;
}

let default_capacity = 1 lsl 16

let mutex = Mutex.create ()

let ring : event option array ref = ref [||]

let head = ref 0 (* next write position *)

let count = ref 0 (* events currently stored *)

let dropped = ref 0

let enabled () = Atomic.get Ambient.tracing

let clear () =
  Mutex.lock mutex;
  Array.fill !ring 0 (Array.length !ring) None;
  head := 0;
  count := 0;
  dropped := 0;
  Mutex.unlock mutex

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Obs.Trace.enable: capacity must be >= 1";
  Mutex.lock mutex;
  ring := Array.make capacity None;
  head := 0;
  count := 0;
  dropped := 0;
  Mutex.unlock mutex;
  Atomic.set Ambient.tracing true

let disable () = Atomic.set Ambient.tracing false

let emit name fields =
  if enabled () then begin
    let frame = Ambient.frame () in
    let seq = frame.seq in
    frame.seq <- seq + 1;
    let ev = { name; path = frame.path; seq; wall = Clock.now (); fields } in
    Mutex.lock mutex;
    let cap = Array.length !ring in
    if cap > 0 then begin
      if !count = cap then Stdlib.incr dropped else Stdlib.incr count;
      !ring.(!head) <- Some ev;
      head := (!head + 1) mod cap
    end
    else Stdlib.incr dropped;
    Mutex.unlock mutex
  end

(* Push an event that already carries its coordinates (same ring
   discipline as [emit], without assigning a frame/seq). *)
let push ev =
  Mutex.lock mutex;
  let cap = Array.length !ring in
  if cap > 0 then begin
    if !count = cap then Stdlib.incr dropped else Stdlib.incr count;
    !ring.(!head) <- Some ev;
    head := (!head + 1) mod cap
  end
  else Stdlib.incr dropped;
  Mutex.unlock mutex

let absorb ?dropped:(extra = 0) evs =
  if enabled () then begin
    List.iter push evs;
    if extra > 0 then begin
      Mutex.lock mutex;
      dropped := !dropped + extra;
      Mutex.unlock mutex
    end
  end

let dropped_events () =
  Mutex.lock mutex;
  let d = !dropped in
  Mutex.unlock mutex;
  d

let compare_path a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_event a b =
  let c = compare_path a.path b.path in
  if c <> 0 then c else compare a.seq b.seq

let events () =
  Mutex.lock mutex;
  let collected = Array.to_list !ring in
  Mutex.unlock mutex;
  List.sort compare_event (List.filter_map Fun.id collected)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_lit x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

(* Stamps are epoch seconds once the CLI installs its clock: six
   significant digits would round them to about 1000 s, so [wall] is
   printed to the microsecond. *)
let wall_lit x =
  if Float.is_finite x then Printf.sprintf "%.6f" x else "null"

let ctx_string path =
  String.concat "." (List.map string_of_int (Array.to_list path))

let event_line buf ev =
  Buffer.add_string buf
    (Printf.sprintf "{\"ev\":\"%s\",\"ctx\":\"%s\",\"seq\":%d,\"wall\":%s" (escape ev.name)
       (ctx_string ev.path) ev.seq (wall_lit ev.wall));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":" (escape k));
      Buffer.add_string buf
        (match v with
        | Int i -> string_of_int i
        | Float f -> float_lit f
        | Str s -> Printf.sprintf "\"%s\"" (escape s)))
    ev.fields;
  Buffer.add_string buf "}\n"

let render_jsonl () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  List.iter (event_line buf) evs;
  let d = dropped_events () in
  if d > 0 then
    Buffer.add_string buf
      (Printf.sprintf "{\"ev\":\"trace.dropped\",\"ctx\":\"\",\"seq\":0,\"wall\":0,\"count\":%d}\n" d);
  Buffer.contents buf

let write_jsonl oc = output_string oc (render_jsonl ())
