(** Plain Linux processes (fork/exec), the paper's baseline: "a process
    is created and launched in 3.5 ms on average (9 ms at the 90%
    percentile)", independent of how many processes already exist. *)

type t

val create : Machine.t -> rng:Lightvm_sim.Rng.t -> t

val fork_exec : t -> ?rss_kb:int -> unit -> unit
(** Blocks for the fork+exec duration (randomised, heavy-tailed). *)

val rss_kb : t -> int
(** Memory of every process forked so far. *)
