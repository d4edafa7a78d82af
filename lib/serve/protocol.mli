(** The serve wire protocol: newline-delimited JSON, one value per
    line, in both directions.

    Requests carry an optional client-chosen [req] tag, echoed on every
    frame that answers them so clients may pipeline; when omitted the
    server assigns consecutive tags per connection. A [run] request is
    answered by zero or more [Progress] frames followed by exactly one
    [Result] (or [Error]); [list] by one [Listing]; [ping] by one
    [Pong]. Decoders reject malformed or truncated lines with a
    descriptive error — the peer is a socket, not a trusted caller. *)

type request =
  | Run of {
      id : string;  (** registry experiment id, e.g. "E7" *)
      seed : int;  (** defaults to 42 on the wire, like the CLI *)
      scale : Simulate.Runner.scale;  (** wire default: full *)
      render : Simulate.Registry.render;  (** wire default: full *)
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
          (** finer-grained [(label, completed, total)], mirroring
              {!Obs.Progress.update}[.sub] *)
    }
  | Result of {
      req : int;
      id : string;
      ok : bool;  (** all assessments passed *)
      cached : bool;  (** served from the warm result cache *)
      seconds : float;  (** execution time (monotonic); 0. when cached *)
      output : string;
          (** rendered experiment output — byte-identical to the batch
              CLI [run <id> --seed S] stdout for the same parameters *)
    }
  | Listing of { req : int; experiments : (string * string) list }  (** (id, title) pairs *)
  | Pong of { req : int }
  | Error of { req : int; message : string }

val scale_to_string : Simulate.Runner.scale -> string

val scale_of_string : string -> (Simulate.Runner.scale, string) result

val render_to_string : Simulate.Registry.render -> string

val render_of_string : string -> (Simulate.Registry.render, string) result

val encode_request : ?req:int -> request -> string
(** One JSON line, without the trailing newline. *)

val encode_msg : msg -> string
(** One JSON line, without the trailing newline. Multi-line [output]
    strings are escaped, never split. *)

val decode_request : string -> (int option * request, string) result
(** Parse one request line; returns the optional [req] tag alongside. *)

val decode_msg : string -> (msg, string) result
