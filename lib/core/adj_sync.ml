type t = {
  g : Dynamic.t;
  adj : Graph.Mutable_adj.t;
  mutable synced : bool;
  mutable refreshes : int;
  ops : int ref;
  birth : int -> int -> unit;
  death : int -> int -> unit;
}

let create g =
  let adj = Graph.Mutable_adj.create ~n:(Dynamic.n g) in
  let ops = ref 0 in
  let birth u v =
    incr ops;
    Graph.Mutable_adj.add adj u v
  in
  let death u v =
    incr ops;
    Graph.Mutable_adj.remove adj u v
  in
  { g; adj; synced = false; refreshes = 0; ops; birth; death }

let adj t = t.adj

let synced t = t.synced

let refreshes t = t.refreshes

let delta_ops t = !(t.ops)

let invalidate t = t.synced <- false

let ensure t =
  if not t.synced then begin
    Graph.Mutable_adj.clear t.adj;
    (* Straight from the model's enumeration into the rows — no
       intermediate edge buffer to fill and re-walk. Deliberately not
       fanned over Exec.Pool (DESIGN.md section 11): each edge appends
       to both endpoints' rows, so writes are not partitionable by
       tile without a counting-sort pre-pass the flood kernels already
       do better downstream — and the rebuild is O(n + m) against the
       O(rounds * m) scans it feeds. *)
    Dynamic.iter_edges t.g (fun u v -> Graph.Mutable_adj.add t.adj u v);
    t.refreshes <- t.refreshes + 1;
    t.synced <- true
  end

(* Applying a delta report costs roughly four row operations per event
   (two appends per birth, two scan-and-swap removals per death), which
   measures ~4x the per-entry cost of rebuilding the whole adjacency
   from a snapshot enumeration. So when the model can say up front that
   the report is large relative to the structure — about a fifth of
   (entries + n), where the rebuild cost crosses the apply cost — skip
   consuming it and let the next [ensure] rebuild. High-churn regimes
   (delta comparable to the edge count) then pay the cheap O(n + m)
   rebuild instead of an O(delta) patch with a worse constant, while
   low-churn regimes keep the pure incremental path. *)
let advance t =
  if t.synced then
    let stale =
      match Dynamic.delta_size t.g with
      | Some d when 5 * d >= Graph.Mutable_adj.entries t.adj + Dynamic.n t.g -> true
      | _ -> not (Dynamic.deltas t.g ~birth:t.birth ~death:t.death)
    in
    if stale then t.synced <- false
