(** Gossip-style dissemination on dynamic graphs — the "more refined
    communication protocols than flooding" of the paper's conclusions.

    Where flooding transmits on every incident edge, gossip protocols
    bound per-node communication: each round every node contacts a
    single uniformly random current neighbour and pushes (sender-side),
    pulls (receiver-side), or both. On a dynamic graph the neighbour
    sets are those of the current snapshot, so all three reduce — in
    the paper's sense — to flooding on a sparser virtual dynamic graph
    whose edges are the chosen contact pairs. *)

type variant =
  | Push       (** informed nodes send to one random neighbour *)
  | Pull       (** uninformed nodes fetch from one random neighbour *)
  | Push_pull  (** both; the classic rumour-spreading protocol *)

type result = {
  time : int option;      (** rounds until everyone is informed *)
  trajectory : int array; (** |I_t| per round *)
  contacts : int;         (** total contacts made (message cost) *)
}

val run :
  ?cap:int -> variant:variant -> rng:Prng.Rng.t -> source:int -> Dynamic.t -> result
(** Run one gossip execution. Semantics per round t: every node draws
    one uniform neighbour in E_t (isolated nodes skip the round); a
    push delivers if the caller is informed, a pull delivers if the
    callee is informed; all deliveries of a round take effect together
    at t+1. [cap] defaults to {!Flooding.default_cap} [n]; a negative
    [cap] raises [Invalid_argument]. *)

val mean_time :
  ?cap:int ->
  variant:variant ->
  rng:Prng.Rng.t ->
  trials:int ->
  ?source:int ->
  Dynamic.t ->
  Stats.Summary.t
(** Round-count summary over independent trials (capped runs recorded
    at the cap, as in {!Flooding.mean_time}). A negative [cap] raises
    [Invalid_argument], as in {!run}. *)
