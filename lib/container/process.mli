(** Plain Linux processes (fork/exec), the paper's baseline: "a process
    is created and launched in 3.5 ms on average (9 ms at the 90%
    percentile)", independent of how many processes already exist. *)

type t

type proc

val create : Machine.t -> rng:Lightvm_sim.Rng.t -> t

val fork_exec : t -> ?rss_kb:int -> unit -> proc
(** Blocks for the fork+exec duration (randomised, heavy-tailed). *)

val kill : t -> proc -> unit

val running : t -> int

val rss_kb : t -> int
