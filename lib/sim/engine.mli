(** Discrete-event simulation engine.

    Simulation activities are ordinary OCaml functions that run as
    cooperative processes on top of OCaml 5 effect handlers: calling a
    blocking primitive ([sleep], [await], [suspend], [Cpu.consume], …)
    performs an effect that captures the continuation and parks it until
    the corresponding event fires on the virtual clock. Engine state is
    domain-local: each domain can drive at most one engine at a time, and
    engines on different domains are fully independent (this is what lets
    {!Pool} run simulations in parallel). All primitives below must be
    called from within [run] on the same domain.

    Determinism: events at equal times fire in scheduling order, and all
    randomness flows through explicit {!Rng.t} values, so a run is a pure
    function of its inputs. *)

type token
(** Handle for a scheduled callback; see {!cancel}. *)

val run : (unit -> unit) -> float
(** [run main] executes [main] as the initial process at virtual time 0
    and drives the event loop until the queue is empty or {!stop} is
    called. Returns the final clock value. Exceptions raised by any
    process abort the run and propagate. Processes still blocked when
    the queue drains are dropped — a simulation ends when no more
    events can fire.

    A single-heap run is partition 0 of {!run_partitioned} alone, with
    [lookahead = infinity]: one round loop serves both, with the same
    rules for {!sleep}, {!post}, capture and resume. Its one window lasts
    until the heap drains or [stop] is called. Like every run, it ends
    once its earliest pending event is at [infinity]: that event never
    runs. *)

val run_partitioned :
  ?jobs:int ->
  ?adaptive:bool ->
  lookahead:float ->
  partitions:int ->
  (unit -> unit) ->
  float
(** Conservative-synchronization parallel run: [partitions] host
    partitions plus partition 0 (dom0/global, where [main] starts),
    each with its own heap, clock and pid space. The coordinator
    repeatedly opens the window [T, T + lookahead) — [T] the earliest
    pending event anywhere — and every partition with events in the
    window executes them, on up to [jobs] worker domains ([jobs <= 1]
    runs the windows inline, in partition order: the deterministic
    reference schedule). Cross-partition events travel via {!post}
    (delay >= lookahead, enforced) and are merged at the window barrier
    in (time, source partition, per-source order) — so the run is
    bit-identical for every [jobs]. [stop] from any partition ends the
    run at the round boundary, and so does an earliest pending event
    at [infinity]. Returns the largest partition clock.
    Tracing hooks only observe windows run on the calling domain; use
    [jobs:1] when tracing.

    [adaptive] (default [true]) sizes windows from the observed
    cross-partition traffic density: a round whose base window holds
    events of only one partition grows to absorb the consecutive
    single-active fixed-lookahead rounds that would follow it — one
    barrier instead of one per lookahead — and shrinks back to the
    fixed window as soon as a second partition has work. Growth stops
    at the earliest foreign event and at the first cross-partition
    send's virtual round boundary, so every event still executes in
    the virtual fixed round it would have executed in and sends merge
    in the same batches: output is bit-identical with [adaptive] on or
    off (pinned by the qcheck matrix in test/test_partition.ml). *)

(** {2 Checkpoint / resume}

    A quiesced simulation — no parked effect continuations, only plain
    event thunks in the heap(s) — can be captured as a {!saved} value
    and resumed later, any number of times. The contract: resuming a
    captured prefix with a suffix [main] produces bit-identical model
    state and output to the unbroken run that executed the prefix and
    suffix in one simulation (the suffix runs at the restored clock
    before any same-time image event, exactly as the unbroken run's
    prefix process continues inline into its suffix; relative event
    order, per-partition clocks and cross-partition merge batches are
    all preserved, for every [jobs] count and with [adaptive] on or
    off). {!Checkpoint} turns a [saved] value plus the model roots it
    references into bytes on disk. *)

type saved
(** Captured engine state: per-partition clocks, pid/outbox counters
    and live heap entries in pop order. The thunks are ordinary
    closures over model state; a [saved] value is only as quiesced as
    the run that produced it (see {!Checkpoint.freeze}). *)

val run_capture : (unit -> unit) -> float * saved
(** {!run}, additionally capturing the engine state at exit (after
    [stop] or queue drain). The capture is that of a partitioned run
    with no host partitions and an infinite lookahead, so {!resume}
    runs it single-heap again. *)

val run_partitioned_capture :
  ?jobs:int ->
  ?adaptive:bool ->
  lookahead:float ->
  partitions:int ->
  (unit -> unit) ->
  float * saved
(** {!run_partitioned}, additionally capturing every partition's state
    at exit. Outboxes are always empty at round barriers, so the heaps
    and clocks are the whole synchronization state. *)

val resume : ?jobs:int -> ?adaptive:bool -> saved -> (unit -> unit) -> float
(** [resume saved main] rebuilds the engine(s) from [saved] and runs
    [main] as the suffix process in partition 0 at the restored clock,
    under the captured lookahead ([infinity] for a capture of {!run})
    with [jobs] workers. Returns the final (largest) clock. A [saved]
    value may be resumed any number of times, but the closures it holds
    share model state: to run independent variants, thaw a fresh copy
    of the frozen image for each ({!Checkpoint.thaw}). *)

val resume_capture :
  ?jobs:int -> ?adaptive:bool -> saved -> (unit -> unit) -> float * saved
(** {!resume} that captures again at exit — the chaining primitive for
    incremental prefixes (boot to N, snapshot, extend to M, snapshot). *)

val current_partition : unit -> int
(** The partition the calling process/callback runs in; always 0 in a
    single-heap {!run}. *)

val partition_count : unit -> int
(** Number of host partitions of the enclosing {!run_partitioned} (not
    counting partition 0); 0 in a single-heap {!run}. *)

val post : partition:int -> delay:float -> (unit -> unit) -> unit
(** Schedule a callback in another partition after [delay] of simulated
    time. Same-partition posts are exactly [after delay]. A partition
    the run does not have raises [Invalid_argument] in every run: a
    single-heap {!run} has partition 0 only, and so does a negative or
    NaN delay. Cross-partition posts
    require [delay >=] the run's lookahead and are delivered at the
    next window barrier; [Invalid_argument] otherwise — the switch's
    modeled latency is the lookahead, so in-model traffic always
    qualifies. *)

val spawn_in :
  ?name:string -> partition:int -> delay:float -> (unit -> unit) -> unit
(** [post] whose callback starts [f] as a fresh process in the target
    partition (pid allocated from that partition's counter). *)

val running : unit -> bool

val now : unit -> float
(** Current virtual time in seconds. *)

val sleep : float -> unit
(** Block the calling process for a (non-negative) duration. When
    nothing else is due before the wake, the clock advances in place
    (see {!try_sleep}). Otherwise the process parks behind a timer, and
    when the timer fires with no live event due at or before its time
    and no {!trace_hooks} installed, it resumes the process itself: the
    wake entry it would otherwise push would be the next pop. A negative
    or NaN duration raises [Invalid_argument]. *)

val try_sleep : float -> bool
(** [try_sleep d] is [sleep d] when that sleep would resume the caller
    next with nothing run in between — the case in which [sleep]
    advances the clock in place instead of parking — and returns
    [true]. Otherwise it changes nothing and returns [false]. A negative
    or NaN [d] raises [Invalid_argument]. [Cpu.consume] uses it to finish a
    burst on an idle core without a completion timer. *)

val yield : unit -> unit
(** Reschedule the calling process behind events already due now. *)

val stop : unit -> unit
(** Terminate the event loop after the current event: pending events
    (including other processes' wakeups) are discarded. The way to end
    a simulation that still has periodic background activity. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current time. [name] labels error
    messages. *)

val self_pid : unit -> int
(** Small integer id of the calling simulation process; pids are
    allocated in spawn order starting from 1 ([main] is 1) and reset on
    each {!run}. Returns 0 from non-process callbacks ({!after}
    thunks) and outside any simulation. *)

(** Lifecycle callbacks for an external tracer: [on_spawn] fires when a
    process first executes, [on_park] when it blocks on {!suspend} (and
    everything built on it), [on_wake] when its resume function is
    called. The engine never depends on the tracer; hooks default to
    [None]. *)
type trace_hooks = {
  on_spawn : pid:int -> name:string -> unit;
  on_park : pid:int -> unit;
  on_wake : pid:int -> unit;
}

val set_trace_hooks : trace_hooks option -> unit
(** Install (or clear) the hooks for the calling domain only: worker
    domains spawned by {!Pool} start with no hooks, so tracing a
    sequential run never races with parallel workers. *)

val after : float -> (unit -> unit) -> token
(** Run a callback (not a blocking process) after a delay. The callback
    must not block; to start blocking work from a callback, [spawn]. A
    negative or NaN delay raises [Invalid_argument]. *)

val cancel : token -> unit
(** Cancel a pending callback. Call it from the partition that armed the
    timer. Cancelling a callback that already ran, or one left pending
    when its run ended, is a no-op. *)

val no_token : token
(** A token whose callback has already run: the starting value of a
    holder of at most one pending timer, which cancels its last token
    before it arms the next. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling process and hands [register] a
    one-shot [resume] function. Calling [resume v] (from a callback or
    another process, at any later virtual time) schedules the process to
    continue with value [v]. This is the primitive from which all other
    blocking constructs are built. In a partitioned run [resume] must be
    called from the process's own partition (raises [Invalid_argument]
    otherwise): to wake a process across partitions, [post] a callback
    into its partition and resume from there. *)

type process_local = ..
(** Values a process carries across suspensions, inherited by the
    processes it spawns. An open variant: each client declares its own
    constructor (e.g. the fault injector's current stream set). *)

val with_process_local : process_local -> (unit -> 'a) -> 'a
(** Push a value onto the calling process's local stack for the extent
    of [f]. Unlike domain-local state, the value survives suspensions
    (it travels with the continuation, even across worker domains in a
    partitioned run) and is captured by [spawn] — children inherit the
    spawning process's locals. Usable outside a simulation too, where
    it is plain dynamic scoping. *)

val find_process_local : (process_local -> 'a option) -> 'a option
(** First match in the calling process's locals, innermost first. *)

(** Write-once cells for inter-process synchronisation. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] when already filled. *)

  val read : 'a t -> 'a
  (** Blocks the calling process until filled. *)

  val is_full : 'a t -> bool
end
