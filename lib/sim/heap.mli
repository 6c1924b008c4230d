(** Growable 4-ary index min-heap keyed by [(time, seq)].

    The ordering keys live in parallel unboxed arrays (a flat
    [float array] of times plus an [int array] of sequence numbers);
    payloads sit in a side table the comparison loops never touch, so a
    sift is pure scalar-array traffic and allocates nothing. Ties on
    [time] are broken by the monotonically increasing sequence number
    assigned at insertion, which makes event ordering — and hence every
    simulation — fully deterministic. Cancellation is lazy: a cancelled
    entry stays in the heap and is skipped on [pop] — until cancelled
    entries outnumber live ones, at which point the heap compacts them
    away so cancel-heavy runs don't leak slots. Pop order is a pure
    function of the [(time, seq)] keys, so compaction is invisible to
    callers. The backing arrays also shrink once occupancy falls to a
    quarter of capacity (never below a fixed floor), so a long-lived
    heap drained after a large peak does not retain peak-sized
    storage. *)

type 'a t

type 'a entry

val create : 'a -> 'a t
(** [create filler] is an empty heap. Slots hold entries without an
    option box, so the slots no entry occupies need a value of the
    payload type: [filler]. It is never returned, and a popped or
    compacted slot holds it again instead of the payload it held. *)

val size : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current length of the backing arrays (grows by doubling, shrinks by
    halving at quarter occupancy down to a fixed floor). Exposed for
    tests and diagnostics. *)

val push : 'a t -> time:float -> 'a -> 'a entry

val pop : 'a t -> (float * 'a) option
(** Smallest live entry by [(time, seq)], or [None] if the heap holds
    only cancelled entries or nothing. *)

val pop_payload : 'a t -> 'a
(** [pop] for the engine hot path: returns the smallest live entry's
    payload without allocating the [(time * 'a) option] box. The caller
    must have checked {!is_empty} (or read {!next_time}) first.

    @raise Invalid_argument on a heap with no live entries. *)

val next_time : 'a t -> float
(** The time of the smallest live entry, without allocating an option.
    The caller must check {!is_empty} first — there is no sentinel
    value, because [infinity] is a legal event time: an engine run ends
    when its earliest pending event is at [infinity] (see
    {!Engine.run}), which is not the same as an empty heap.

    @raise Invalid_argument on a heap with no live entries. *)

val entries : 'a t -> (float * 'a) array
(** Non-destructive snapshot of the live entries, in pop order (the
    [(time, seq)] key). Re-pushing the pairs into a fresh heap in array
    order reproduces this heap's exact pop order — the contract
    sim-state checkpoint/restore is built on. *)

val cancel : 'a t -> 'a entry -> unit
(** Idempotent. A cancelled entry is never returned by [pop];
    cancelling an entry [pop] already returned is a no-op. *)

val cancelled : 'a entry -> bool

val drain : 'a t -> unit
(** Empty the heap, marking every live entry as popped: cancelling one
    afterwards is a no-op, on this heap or any other. *)
