(** In-memory span recorder for the benchmark's traced runs.

    A span is one timed call across a layer boundary: its [name] (the
    layer and the public function called, e.g. ["dynamic.step"]), its
    [start] and [stop] on the monotonic clock, the index of the span
    that caused it ([parent], [-1] for a root) and the operation it
    belongs to ([req]). Spans are kept in memory while the workload
    runs and written out as JSONL when it ends, so the disk is never on
    the timed path. *)

type t = { name : string; start : float; stop : float; parent : int; req : int }

type recorder

val create : unit -> recorder

val add : recorder -> t -> int
(** Append a span and return its index (the [parent] of spans it
    causes). Safe to call from several threads. *)

val start : recorder -> name:string -> parent:int -> req:int -> float -> int
(** [start r ~name ~parent ~req t0] opens a span at [t0] whose end is
    not known yet; close it with {!finish}. Children recorded in
    between may name its index as their parent. *)

val finish : recorder -> int -> float -> unit

val spans : recorder -> t array
(** Every span recorded so far, in index order. *)

val duration : t -> float

val self_times : t array -> float array
(** Each span's self time: its duration minus the part of its interval
    covered by its children's intervals (overlapping children count
    once; the parts of a child outside its parent do not count). *)

val write_jsonl : out_channel -> origin:float -> t array -> unit
(** One JSON object per span with the keys [name], [start], [end]
    (seconds since [origin]), [parent] and [req]. *)
