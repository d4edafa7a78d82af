type t = { name : string; start : float; stop : float; parent : int; req : int }

type recorder = { mutable spans : t array; mutable len : int; m : Mutex.t }

let create () =
  {
    spans = Array.make 1024 { name = ""; start = 0.; stop = 0.; parent = -1; req = -1 };
    len = 0;
    m = Mutex.create ();
  }

let add r s =
  Mutex.protect r.m (fun () ->
      if r.len = Array.length r.spans then begin
        let bigger = Array.make (2 * r.len) s in
        Array.blit r.spans 0 bigger 0 r.len;
        r.spans <- bigger
      end;
      r.spans.(r.len) <- s;
      r.len <- r.len + 1;
      r.len - 1)

let start r ~name ~parent ~req t0 = add r { name; start = t0; stop = t0; parent; req }

let finish r i t1 = Mutex.protect r.m (fun () -> r.spans.(i) <- { (r.spans.(i)) with stop = t1 })

let spans r = Mutex.protect r.m (fun () -> Array.sub r.spans 0 r.len)

let duration s = s.stop -. s.start

(* Length of the union of the children's intervals, each clipped to
   the parent's interval: sort by start and sweep, extending the
   current run while the next interval overlaps it. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec sweep acc (cur_a, cur_b) = function
    | [] -> acc +. (cur_b -. cur_a)
    | (a, b) :: rest ->
        if a <= cur_b then sweep acc (cur_a, Float.max cur_b b) rest
        else sweep (acc +. (cur_b -. cur_a)) (a, b) rest
  in
  match clipped with [] -> 0. | first :: rest -> sweep 0. first rest

let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 && s.parent < Array.length spans then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s -> duration s -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

let write_jsonl oc ~origin spans =
  Array.iter
    (fun s ->
      Printf.fprintf oc "{\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d}\n"
        s.name (s.start -. origin) (s.stop -. origin) s.parent s.req)
    spans
