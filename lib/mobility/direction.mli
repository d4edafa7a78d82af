(** The random direction model: each node travels at constant speed
    along a uniformly random heading, reflecting off the square's
    borders, and redraws its heading with probability [1/turn_every]
    per step (geometric leg durations). Unlike the waypoint model its
    stationary positional distribution is (near-)uniform, which makes
    it the "uniform positional density" control for the Corollary 4
    experiments. *)

type init = Uniform | Corner

val create :
  ?init:init ->
  n:int -> l:float -> r:float -> v:float -> turn_every:float -> unit -> Geo.t
(** [v] is the speed per step, in [(0, l\]], so a step reflects off a
    border at most once; [turn_every] is the mean leg duration in steps
    (at least 1; infinite means a node never turns). Raises
    [Invalid_argument] otherwise, NaN included. *)

val dynamic :
  ?init:init ->
  n:int -> l:float -> r:float -> v:float -> turn_every:float -> unit -> Core.Dynamic.t
