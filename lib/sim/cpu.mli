(** Multi-core CPU under processor sharing.

    Each core runs its active jobs at an equal share of the core's
    speed — a fluid approximation of round-robin scheduling with a small
    quantum (Xen's credit scheduler, Linux CFS). A job is created by
    {!consume}, which blocks the calling simulation process until the
    requested amount of work (in seconds of reference-speed CPU time)
    has been served.

    The model also tracks per-core busy time so experiments can report
    utilisation (paper Fig. 15), and exposes run-queue lengths for the
    scheduling-latency model used by the firewall use case (Fig. 16a).

    A core keeps its jobs in insertion order: their remaining work in an
    unboxed float array, beside an array of wakers (a blocked burst's
    own resume, or an {!Engine.Ivar.fill} for {!consume_async}). Its
    busy time is a float-only record, and its one completion timer
    callback is built when it first arms a timer. Jobs that finish
    together wake in insertion order. *)

type t

val create : ?speed:float -> ncores:int -> unit -> t
(** [speed] is a relative frequency factor (reference = 1.0); a job of
    [w] seconds takes [w /. speed] seconds on an otherwise idle core. *)

val ncores : t -> int

val consume : t -> core:int -> float -> unit
(** [consume t ~core w] blocks until [w] seconds of reference CPU work
    have been served on [core]. [w <= 0.] returns immediately; a NaN [w]
    raises [Invalid_argument]. A burst
    alone on an idle core with nothing else due before its completion
    finishes in place ({!Engine.try_sleep}): the same completion time,
    busy total and load as the completion timer, without a timer or a
    park. *)

val consume_async : t -> core:int -> float -> unit Engine.Ivar.t
(** Non-blocking variant: the returned ivar fills on completion, at
    once for [w <= 0.]; a NaN [w] raises [Invalid_argument]. *)

val load : t -> core:int -> int
(** Number of jobs currently sharing the core. *)

val total_load : t -> int

val least_loaded : t -> first:int -> count:int -> int
(** Among the [count] cores from [first] on, the one with the fewest
    active jobs (ties to the lowest id). *)

val busy_seconds : t -> float
(** Cumulative busy time summed over cores since creation or the last
    {!reset_stats}, sampled at the current instant. *)

val utilization : t -> since:float -> float
(** Average fraction of total capacity busy over [now - since]. *)

val reset_stats : t -> unit
