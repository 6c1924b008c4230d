(** Fixed-size worker pool over OCaml 5 domains (stdlib only:
    [Domain.spawn] + [Mutex]/[Condition] around a shared work queue).

    Each job is an independent closure — typically one whole simulation
    ({!Engine.run} is single-domain, and engine state is domain-local),
    so parallelism is across simulations: whole experiments, or the
    per-mode/per-curve sweeps inside one. Results are returned in
    submission order regardless of completion order, which keeps
    consumers' output bit-identical to a sequential run whatever the
    worker count. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8 (and at least 1):
    the simulations are CPU-bound, so oversubscribing domains only adds
    scheduling noise. *)

val create : workers:int -> t
(** Spawn [workers] domains blocked on the queue. Each worker tunes its
    GC with {!tune_gc} before taking work. *)

val tune_gc : unit -> unit
(** Raise the calling domain's GC knobs to the simulation profile — a
    larger minor heap ([4M] words) and a lazier major GC
    ([space_overhead >= 200]) — so allocation-heavy event loops spend
    less time collecting scratch that is about to die. Knobs are only
    ever raised, never lowered; applied automatically on pool workers,
    and meant to be called once from a driver's main entry point for
    the sequential path. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] executes every thunk and returns their results
    in input order. With [jobs <= 1] (or a single thunk) everything runs
    sequentially on the calling domain — no domains are spawned — so
    [run ~jobs:1] is the reference behaviour parallel runs must match.
    Otherwise a temporary pool of [min jobs (length thunks)] workers is
    created and shut down around the batch. If a thunk raises, every
    other job still runs to completion, then the first failure (in
    submission order) is re-raised with its original backtrace. *)

(** {1 Lower-level interface} *)

type promise
(** A handle for one submitted job (see {!submit}/{!await}). *)

val submit :
  t -> (unit -> 'a) -> promise * 'a option ref
(** Enqueue a job; the paired ref holds the result once the promise
    completes. Raises [Invalid_argument] after {!shutdown}. *)

val await :
  promise * 'a option ref ->
  ('a, exn * Printexc.raw_backtrace) result
(** Block the calling (OS) thread until the job finishes. *)

val shutdown : t -> unit
(** Close the queue, let the workers drain it, and join them. *)
