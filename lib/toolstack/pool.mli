(** The chaos daemon's shell pool (split toolstack, Figure 8).

    The daemon keeps a configurable number of pre-created VM shells per
    flavor (memory x vcpus x devices). [take] hands one out and kicks a
    background refill, so steady-state creations never pay for phases
    1-5. *)

type 'a t

val create : target:int -> make:(unit -> 'a) -> 'a t
(** [target] is the low-water mark the daemon maintains.
    @raise Invalid_argument when [target < 1]. *)

val prefill : 'a t -> unit
(** Synchronously build shells up to [target] (daemon start-up). *)

val size : 'a t -> int

val target : 'a t -> int

val set_target : 'a t -> int -> unit
(** Move the low-water mark (the serverless autoscaler's knob). Raising
    it takes effect on the next [take]/[prefill]; lowering it stops the
    background refill at the new mark but does not destroy queued
    shells — drain surplus with {!take_surplus} and tear each shell
    down through the toolstack.
    @raise Invalid_argument on a negative target. *)

val take_surplus : 'a t -> 'a option
(** Pop one shell iff the pool currently holds more than [target]
    (scale-down): [None] once the pool is at or below the mark. *)

val take : 'a t -> 'a
(** Pop a shell; falls back to building one synchronously when the
    pool is empty (and still triggers the background refill). Whatever
    [make] raises (e.g. {!Create.Create_failed} for shell pools)
    propagates from the synchronous fallback; background refill
    failures are contained in the refill process. *)

val takes : 'a t -> int
(** {!take} calls over the pool's lifetime. *)

val hits : 'a t -> int
(** {!take} calls served from a queued shell (no synchronous build).
    [hits / takes] is the warm-pool hit rate the serverless experiments
    report. *)
