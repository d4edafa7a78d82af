(** E6 — The paper's headline application: flooding time of the random
    waypoint over a square. Two sweeps: (i) L = √n with constant r, v —
    the sparse, highly-disconnected MANET regime — where the bound
    O((√n/v) log³ n) predicts a near-√n growth; (ii) speed sweep at
    fixed n, where flooding should scale as 1/v. A Manhattan-trajectory
    ablation shows the bound is insensitive to trajectory shape
    (the paper's generality claim vs. the ad-hoc analysis of [13]). *)

val id : string
val title : string
val claim : string
val run : sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list

val assess : Stats.Table.t list -> Assess.check list
(** Shape checks over the tables produced by [run]. *)
