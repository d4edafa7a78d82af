(** E1 — Classic edge-MEG(p, q): measured flooding time vs. the
    almost-tight bound O(log n / log(1 + np)) of [10] (paper Eq. 2),
    sweeping n at p = c/n. The claim reproduced: the measured/bound
    ratio stays bounded (the bound's shape is right), across densities
    c and death rates q. *)

val id : string
val title : string
val claim : string
val run : sched:Exec.scheduler -> rng:Prng.Rng.t -> scale:Runner.scale -> Stats.Table.t list

val assess : Stats.Table.t list -> Assess.check list
(** Shape checks over the tables produced by [run]. *)
