open Helpers

(* The serve stack, bottom-up: the strict JSON codec, the NDJSON
   protocol, and an in-process end-to-end pass through a real server on
   a Unix socket. The codec tests are the satellite the ISSUE asks for:
   the peer is a socket, so truncated and malformed lines must be
   rejected, never crash or silently default. *)

(* --- Jsonx: strict parse / compact render --- *)

let roundtrip v = Serve.Jsonx.parse (Serve.Jsonx.to_string v)

let test_jsonx_roundtrip () =
  let values =
    [
      Serve.Jsonx.Null;
      Bool true;
      Bool false;
      Num 0.;
      Num 42.;
      Num (-17.5);
      Num 1e300;
      Str "";
      Str "plain";
      Str "quotes \" and \\ backslash";
      Str "newline\nand\ttab and \r return";
      Str "control \001 char";
      Arr [];
      Arr [ Num 1.; Str "two"; Bool false; Null ];
      Obj [];
      Obj [ ("a", Num 1.); ("nested", Obj [ ("b", Arr [ Str "x" ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      match roundtrip v with
      | Ok v' -> check_true "round-trips" (v = v')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    values

let test_jsonx_single_line () =
  let v =
    Serve.Jsonx.Obj
      [ ("output", Str "line one\nline two\nline three"); ("s", Str "\r\n") ]
  in
  let s = Serve.Jsonx.to_string v in
  check_true "rendering is newline-free" (not (String.contains s '\n'));
  check_true "and carriage-return-free" (not (String.contains s '\r'))

let test_jsonx_parse_atoms () =
  let ok s = match Serve.Jsonx.parse s with Ok v -> v | Error e -> Alcotest.failf "%s: %s" s e in
  check_true "true" (ok "true" = Bool true);
  check_true "null" (ok "null" = Null);
  check_true "int" (ok "42" = Num 42.);
  check_true "negative float" (ok "-2.5e1" = Num (-25.));
  check_true "whitespace tolerated" (ok "  [ 1 , 2 ]  " = Arr [ Num 1.; Num 2. ]);
  check_true "escape decoding" (ok {|"a\nb\u0041"|} = Str "a\nbA");
  (* Surrogate pair: U+1F600 as \ud83d\ude00 must decode to 4 UTF-8 bytes. *)
  check_true "surrogate pair" (ok {|"\ud83d\ude00"|} = Str "\xf0\x9f\x98\x80")

let test_jsonx_rejects_malformed () =
  let bad s =
    match Serve.Jsonx.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error e -> check_true "error is descriptive" (String.length e > 0)
  in
  (* Truncations of a valid line: every strict prefix must be rejected. *)
  let line = {|{"op":"run","id":"E7","seed":1}|} in
  for len = 1 to String.length line - 1 do
    bad (String.sub line 0 len)
  done;
  bad "";
  bad "tru";
  bad "{\"a\":1,}";
  bad "[1,2";
  bad "\"unterminated";
  bad "\"bad \\x escape\"";
  bad "\"raw \n newline\"";
  bad "{\"a\":1} trailing";
  bad "01e";
  bad "\"lone surrogate \\ud83d\""

(* --- Protocol: request / msg round-trips --- *)

let test_protocol_request_roundtrip () =
  let cases =
    [
      (None, Serve.Protocol.List);
      (Some 7, Serve.Protocol.Ping);
      ( Some 0,
        Serve.Protocol.Run
          { id = "E7"; seed = 1337; scale = Simulate.Runner.Quick; render = Simulate.Registry.Scorecard } );
      ( None,
        Serve.Protocol.Run
          { id = "E1"; seed = -3; scale = Simulate.Runner.Large; render = Simulate.Registry.Full } );
    ]
  in
  List.iter
    (fun (req, r) ->
      let line = Serve.Protocol.encode_request ?req r in
      check_true "one line" (not (String.contains line '\n'));
      match Serve.Protocol.decode_request line with
      | Ok (req', r') -> check_true "round-trips" (req' = req && r' = r)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    cases

let test_protocol_request_defaults () =
  (* Wire defaults mirror the CLI: seed 42, scale full, render full. *)
  match Serve.Protocol.decode_request {|{"op":"run","id":"E2"}|} with
  | Ok (None, Serve.Protocol.Run { id = "E2"; seed = 42; scale = Simulate.Runner.Full; render = Simulate.Registry.Full }) ->
      ()
  | Ok _ -> Alcotest.fail "wrong defaults"
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_protocol_request_rejects () =
  let bad s =
    match Serve.Protocol.decode_request s with
    | Ok _ -> Alcotest.failf "accepted bad request %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad {|{"op":"run"}|} (* no id *);
  bad {|{"op":"walk","id":"E1"}|} (* unknown type *);
  bad {|{"op":"run","id":"E1","scale":"huge"}|};
  bad {|{"op":"run","id":"E1","render":"sparkline"}|};
  bad {|{"op":"run","id":"E1","seed":"forty-two"}|};
  bad {|"run"|};
  (* Truncations of a valid request line. *)
  let line = Serve.Protocol.encode_request ~req:3 (Serve.Protocol.Run { id = "E7"; seed = 9; scale = Simulate.Runner.Quick; render = Simulate.Registry.Full }) in
  for len = 1 to String.length line - 1 do
    bad (String.sub line 0 len)
  done

let test_protocol_msg_roundtrip () =
  let cases =
    [
      Serve.Protocol.Progress { req = 1; id = "E7"; completed = 3; total = 12; sub = None };
      Serve.Protocol.Progress
        { req = 0; id = "E1"; completed = 0; total = 1; sub = Some ("E1", 40, 105) };
      Serve.Protocol.Result
        {
          req = 2;
          id = "E2";
          ok = true;
          cached = false;
          seconds = 0.125;
          output = "== table ==\n  a  b\n  1  2\nquote \" backslash \\ done\n";
        };
      Serve.Protocol.Result
        { req = 9; id = "E3"; ok = false; cached = true; seconds = 0.; output = "" };
      Serve.Protocol.Listing
        { req = 0; experiments = [ ("E1", "flooding vs bound"); ("E2", "crossover, \"quoted\"") ] };
      Serve.Protocol.Pong { req = 5 };
      Serve.Protocol.Error { req = -1; message = "unknown experiment \"E99\"" };
    ]
  in
  List.iter
    (fun m ->
      let line = Serve.Protocol.encode_msg m in
      check_true "one line even with multi-line output" (not (String.contains line '\n'));
      match Serve.Protocol.decode_msg line with
      | Ok m' -> check_true "round-trips" (m = m')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    cases

let test_protocol_msg_rejects () =
  let bad s =
    match Serve.Protocol.decode_msg s with
    | Ok _ -> Alcotest.failf "accepted bad msg %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{}";
  bad {|{"frame":"result"}|};
  bad {|{"frame":"nonsense","req":1}|};
  let line =
    Serve.Protocol.encode_msg
      (Serve.Protocol.Result
         { req = 1; id = "E1"; ok = true; cached = false; seconds = 1.; output = "x\ny" })
  in
  for len = 1 to String.length line - 1 do
    bad (String.sub line 0 len)
  done

(* --- end to end: a real server on a Unix socket --- *)

let with_server ?(procs = 0) f =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dyngraph-test-%d.sock" (Unix.getpid ()))
  in
  let server =
    Serve.Server.create
      { Serve.Server.socket_path; tcp_port = None; jobs = 1; executors = 1; procs; cache_capacity = 8 }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () -> f socket_path)

(* Out-of-range settings are rejected before any socket is bound,
   never clamped. *)
let test_server_rejects_config () =
  let base = { Serve.Server.default_config with socket_path = "unbound.sock" } in
  List.iter
    (fun (what, config) ->
      check_true (what ^ " rejected")
        (try
           ignore (Serve.Server.create config);
           false
         with Invalid_argument _ -> true))
    [
      ("jobs 0", { base with jobs = 0 });
      ("executors 0", { base with executors = 0 });
      ("executors 2", { base with executors = 2 });
      ("procs -1", { base with procs = -1 });
      ("procs 2", { base with procs = 2 });
      ("cache -1", { base with cache_capacity = -1 });
    ];
  check_true "no socket bound" (not (Sys.file_exists "unbound.sock"))

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done

type result_frame = { r_ok : bool; r_cached : bool; r_output : string }

(* Read frames until this request's result, collecting the [sub] field
   of each progress frame along the way. *)
let await_result ic ~req =
  let progress = ref [] in
  let rec go () =
    match Serve.Protocol.decode_msg (input_line ic) with
    | Ok (Serve.Protocol.Progress p) when p.req = req ->
        progress := p.sub :: !progress;
        go ()
    | Ok (Serve.Protocol.Result r) when r.req = req ->
        ({ r_ok = r.ok; r_cached = r.cached; r_output = r.output }, List.rev !progress)
    | Ok (Serve.Protocol.Error e) -> Alcotest.failf "server error: %s" e.message
    | Ok _ -> go ()
    | Error e -> Alcotest.failf "bad frame from server: %s" e
  in
  go ()

let test_server_end_to_end () =
  with_server (fun path ->
      let fd = connect path in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* ping *)
          send_line fd (Serve.Protocol.encode_request ~req:99 Serve.Protocol.Ping);
          (match Serve.Protocol.decode_msg (input_line ic) with
          | Ok (Serve.Protocol.Pong { req = 99 }) -> ()
          | _ -> Alcotest.fail "expected pong 99");
          (* list covers the registry *)
          send_line fd (Serve.Protocol.encode_request ~req:98 Serve.Protocol.List);
          (match Serve.Protocol.decode_msg (input_line ic) with
          | Ok (Serve.Protocol.Listing { req = 98; experiments }) ->
              Alcotest.(check int) "listing covers the registry"
                (List.length Simulate.Registry.all)
                (List.length experiments);
              check_true "E1 listed" (List.mem_assoc "E1" experiments)
          | _ -> Alcotest.fail "expected listing 98");
          (* run: byte-identical to the batch path, then cached on repeat *)
          let run_req =
            Serve.Protocol.Run
              { id = "E2"; seed = 7; scale = Simulate.Runner.Quick; render = Simulate.Registry.Full }
          in
          send_line fd (Serve.Protocol.encode_request ~req:0 run_req);
          let r0, _ = await_result ic ~req:0 in
          check_true "first run not cached" (not r0.r_cached);
          let expected_output, expected_ok, _, _ =
            match Simulate.Registry.find "E2" with
            | Some e -> Simulate.Registry.single_outcome ~seed:7 ~scale:Simulate.Runner.Quick e
            | None -> Alcotest.fail "E2 not registered"
          in
          Alcotest.(check string) "output byte-identical to the batch path" expected_output
            r0.r_output;
          check_true "verdict matches the batch path" (r0.r_ok = expected_ok);
          send_line fd (Serve.Protocol.encode_request ~req:1 run_req);
          let r1, _ = await_result ic ~req:1 in
          check_true "repeat served from cache" r1.r_cached;
          Alcotest.(check string) "cached output identical" r0.r_output r1.r_output;
          (* different seed misses the cache *)
          send_line fd
            (Serve.Protocol.encode_request ~req:2
               (Serve.Protocol.Run
                  { id = "E2"; seed = 8; scale = Simulate.Runner.Quick; render = Simulate.Registry.Full }));
          let r2, _ = await_result ic ~req:2 in
          check_true "new seed misses the cache" (not r2.r_cached);
          check_true "and renders different bytes" (r2.r_output <> r0.r_output);
          (* a malformed line answers with an error frame, connection stays up *)
          send_line fd "{\"op\":\"run\"";
          (match Serve.Protocol.decode_msg (input_line ic) with
          | Ok (Serve.Protocol.Error _) -> ()
          | _ -> Alcotest.fail "expected an error frame for a truncated request");
          send_line fd (Serve.Protocol.encode_request ~req:97 Serve.Protocol.Ping);
          match Serve.Protocol.decode_msg (input_line ic) with
          | Ok (Serve.Protocol.Pong { req = 97 }) -> ()
          | _ -> Alcotest.fail "connection should survive a malformed line"))

let test_server_concurrent_clients () =
  with_server (fun path ->
      (* Two results computed through the load generator's own client
         loop: progress frames stream per request and nothing errors. *)
      let s =
        Serve.Load.run
          ~connect:(fun () -> connect path)
          ~clients:4 ~per_client:2 ~ids:[ "E2"; "E3" ] ~seed:11
          ~scale:Simulate.Runner.Quick ~render:Simulate.Registry.Full ()
      in
      Alcotest.(check int) "all requests completed" 8 s.Serve.Load.completed;
      Alcotest.(check int) "no errors" 0 s.Serve.Load.errors;
      check_true "repeats hit the warm cache" (s.Serve.Load.cached >= 1);
      check_true "progress frames streamed" (s.Serve.Load.progress_frames >= 1))

(* Two connections at once, each pipelining fresh-seed runs: every
   result must equal the batch path for its seed. The daemon runs one
   request at a time; a second executor thread would share the
   flooding kernels' per-domain scratch with the request it interrupts,
   and such a daemon returned results that differ from the batch
   CLI. *)
let test_server_concurrent_identity () =
  let per_conn = 5 in
  let streams = [ ("E11", 7_000); ("E1", 8_000) ] in
  with_server (fun path ->
      let conns =
        List.map
          (fun (id, base) ->
            let fd = connect path in
            let got = ref [] in
            let read () =
              let ic = Unix.in_channel_of_descr fd in
              try
                while List.length !got < per_conn do
                  match Serve.Protocol.decode_msg (input_line ic) with
                  | Ok (Serve.Protocol.Result r) -> got := (r.req, Ok (r.output, r.ok)) :: !got
                  | Ok (Serve.Protocol.Error e) -> got := (e.req, Error e.message) :: !got
                  | Ok _ -> ()
                  | Error e -> got := (-1, Error ("bad frame: " ^ e)) :: !got
                done
              with End_of_file -> ()
            in
            (id, base, fd, got, Thread.create read ()))
          streams
      in
      List.iter
        (fun (id, base, fd, _, _) ->
          for k = 0 to per_conn - 1 do
            send_line fd
              (Serve.Protocol.encode_request ~req:k
                 (Serve.Protocol.Run
                    {
                      id;
                      seed = base + k;
                      scale = Simulate.Runner.Quick;
                      render = Simulate.Registry.Full;
                    }))
          done)
        conns;
      (* Wait for every result before computing the batch references:
         a reference computed on this thread while the executor still
         runs the other connection's requests would share its scratch
         too. *)
      List.iter
        (fun (_, _, fd, _, th) ->
          Thread.join th;
          try Unix.close fd with Unix.Unix_error _ -> ())
        conns;
      List.iter
        (fun (id, base, _, got, _) ->
          Alcotest.(check int) (id ^ " results") per_conn (List.length !got);
          List.iter
            (fun (req, r) ->
              let seed = base + req in
              let what = Printf.sprintf "%s seed %d" id seed in
              match r with
              | Error msg -> Alcotest.failf "%s: %s" what msg
              | Ok (output, ok) ->
                  let expected, expected_ok, _, _ =
                    Simulate.Registry.single_outcome ~seed ~scale:Simulate.Runner.Quick
                      (Option.get (Simulate.Registry.find id))
                  in
                  Alcotest.(check string) (what ^ " output = batch path") expected output;
                  check_true (what ^ " verdict = batch path") (ok = expected_ok))
            !got)
        conns)

(* A [procs] daemon runs each request as a one-job fleet plan on a
   worker process: the output must equal the in-process batch path, and
   the worker's own progress must reach the client as forwarded
   (sub-labelled) progress frames. *)
let test_server_fleet () =
  Exec.set_worker_command
    (Some [| "../bin/dyngraph_cli.exe"; "worker"; "--jobs"; "1"; "--progress-pipe" |]);
  Fun.protect ~finally:(fun () -> Exec.set_worker_command None) @@ fun () ->
  with_server ~procs:1 (fun path ->
      let fd = connect path in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iteri
            (fun req (id, seed) ->
              send_line fd
                (Serve.Protocol.encode_request ~req
                   (Serve.Protocol.Run
                      { id; seed; scale = Simulate.Runner.Quick; render = Simulate.Registry.Full }));
              let r, progress = await_result ic ~req in
              let expected, expected_ok, _, _ =
                Simulate.Registry.single_outcome ~sched:Exec.sequential ~seed
                  ~scale:Simulate.Runner.Quick
                  (Option.get (Simulate.Registry.find id))
              in
              let what = Printf.sprintf "%s seed %d" id seed in
              check_true (what ^ " not cached") (not r.r_cached);
              Alcotest.(check string) (what ^ " output = sequential") expected r.r_output;
              check_true (what ^ " verdict = sequential") (r.r_ok = expected_ok);
              check_true (what ^ " forwarded a worker progress frame")
                (List.exists Option.is_some progress))
            [ ("E2", 42); ("E2", 7); ("E6", 42); ("E6", 7) ]))

(* --- least-recently-used result cache --- *)

module Cache = Serve.Server.Cache

let store c key = Cache.store c key ~output:("out:" ^ key) ~ok:true

let cached c key = Cache.find c key <> None

let test_cache_lru_eviction () =
  let c = Cache.create 3 in
  List.iter (store c) [ "a"; "b"; "c" ];
  Alcotest.(check int) "at capacity" 3 (Cache.length c);
  store c "d";
  Alcotest.(check int) "capacity held" 3 (Cache.length c);
  check_true "least recent entry evicted" (not (cached c "a"));
  store c "e";
  check_true "next least recent evicted" (not (cached c "b"));
  check_true "recent entries kept" (cached c "c" && cached c "d" && cached c "e")

let test_cache_hit_refreshes () =
  let c = Cache.create 3 in
  List.iter (store c) [ "a"; "b"; "c" ];
  (* A hit makes "a" the most recent, so "b" is evicted in its place.
     (Checks below only probe missing keys until the end: a hit would
     refresh the entry it probes.) *)
  check_true "hit" (cached c "a");
  store c "d";
  check_true "least recent entry evicted instead of the hit one" (not (cached c "b"));
  (* Re-storing an existing key refreshes it without evicting: "c" is
     now newer than "a" and "d", so "a" goes next. *)
  store c "c";
  Alcotest.(check int) "refresh keeps the size" 3 (Cache.length c);
  store c "e";
  check_true "then the oldest went" (not (cached c "a"));
  check_true "refreshed entries kept" (cached c "c" && cached c "d" && cached c "e")

let test_cache_zero_capacity () =
  let c = Cache.create 0 in
  store c "k";
  Alcotest.(check int) "capacity 0 stores nothing" 0 (Cache.length c);
  check_true "no phantom hits" (not (cached c "k"))

let suites =
  [
    ( "serve.jsonx",
      [
        Alcotest.test_case "render/parse round-trip" `Quick test_jsonx_roundtrip;
        Alcotest.test_case "rendering is one line" `Quick test_jsonx_single_line;
        Alcotest.test_case "parse atoms and escapes" `Quick test_jsonx_parse_atoms;
        Alcotest.test_case "rejects malformed and truncated" `Quick test_jsonx_rejects_malformed;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_protocol_request_roundtrip;
        Alcotest.test_case "request wire defaults" `Quick test_protocol_request_defaults;
        Alcotest.test_case "request rejects bad lines" `Quick test_protocol_request_rejects;
        Alcotest.test_case "msg round-trip" `Quick test_protocol_msg_roundtrip;
        Alcotest.test_case "msg rejects bad lines" `Quick test_protocol_msg_rejects;
      ] );
    ( "serve.cache",
      [
        Alcotest.test_case "least recent evicted" `Quick test_cache_lru_eviction;
        Alcotest.test_case "hit refreshes recency" `Quick test_cache_hit_refreshes;
        Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "end to end on a unix socket" `Slow test_server_end_to_end;
        Alcotest.test_case "concurrent clients via load" `Slow test_server_concurrent_clients;
        Alcotest.test_case "procs 1 daemon = sequential, with progress" `Slow test_server_fleet;
        Alcotest.test_case "create rejects out-of-range config" `Quick
          test_server_rejects_config;
        Alcotest.test_case "concurrent fresh seeds = batch path" `Slow
          test_server_concurrent_identity;
      ] );
  ]
