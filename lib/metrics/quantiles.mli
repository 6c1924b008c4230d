(** Streaming latency accumulator for SLO percentiles.

    An append-only sample sink sized for open-loop workloads (millions
    of per-request latencies): amortised O(1) [add] into a growable
    flat float array, quantiles computed by sorting once on demand and
    caching the sorted view until the next [add]. Exact — every sample
    is retained — so the reported p50/p99/p999 are digest-stable
    functions of the input stream, unlike a sketch. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** [0.] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0, 1], by nearest-rank on the sorted
    samples. @raise Invalid_argument when empty or [q] outside
    [0, 1]. *)

val merge_into : t -> src:t -> unit
(** Append every sample of [src] (in insertion order) to [t]. *)

val sorted_points : t -> every:int -> (float * float) list
(** CDF rendering: every [every]-th point of the sorted samples as
    [(value, cumulative fraction)], always including the first and
    last. Empty list when empty. *)
