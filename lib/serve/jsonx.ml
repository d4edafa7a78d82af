(* A minimal JSON value type with a strict parser and a compact
   renderer — the wire format of the serve protocol, and the reader of
   bench_diff's baselines. Hand-rolled because the protocol is tiny and
   the repo takes no external dependencies. The parser reads bytes
   from untrusted sockets, so it rejects truncated input, trailing
   garbage, bad escapes and malformed numbers with a positioned error
   instead of guessing. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                (* Combine a surrogate pair when one follows. *)
                if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n && s.[!pos] = '\\'
                   && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  else fail "unpaired surrogate"
                end
                else cp
              in
              (* A surrogate half that never combined is not a scalar
                 value; encoding it would emit ill-formed UTF-8. *)
              if cp >= 0xD800 && cp <= 0xDFFF then fail "unpaired surrogate";
              add_utf8 buf cp
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws ();
        let k = string_body () in
        skip_ws ();
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elements ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* Compact, newline-free rendering: every control character is escaped,
   so a rendered value is always exactly one NDJSON line. *)
let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  let add_escaped s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.0f" f)
        else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | Str s -> add_escaped s
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped k;
            Buffer.add_char buf ':';
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let str_opt = function Str s -> Some s | _ -> None

let num_opt = function Num f -> Some f | _ -> None

let int_opt = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Some (int_of_float f)
  | _ -> None

let bool_opt = function Bool b -> Some b | _ -> None
