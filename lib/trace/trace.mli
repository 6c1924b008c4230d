(** Span-and-counter tracing for the simulated host.

    Spans are begin/end intervals on the {e virtual} clock, tagged with
    a category and key/value attributes; nesting is tracked per
    simulation process (see {!Lightvm_sim.Engine.self_pid}) and
    completed spans land in a bounded ring buffer that evicts the
    oldest entries. Counters are monotonic event tallies (hypercalls,
    softirqs, XenStore ops by type, …). Both are global, matching the
    one-engine-at-a-time simulation model.

    When disabled (the default) every entry point is a near-zero-cost
    no-op and, crucially, {e nothing charges the virtual clock}, so
    experiment results are identical with tracing on or off. Exporters
    live in {!Trace_export}. *)

type attr = string * string

type span = {
  sp_name : string;
  sp_category : string;
  sp_start : float; (* virtual seconds *)
  sp_end : float;
  sp_self : float; (* duration minus time spent in child spans *)
  sp_tid : int; (* simulation process id *)
  sp_depth : int; (* nesting depth within that process at begin time *)
  sp_seq : int; (* completion order, monotonic from 0 *)
  sp_attrs : attr list;
}

val duration : span -> float

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn tracing on and clear all recorded state. [capacity] bounds the
    span ring buffer (default 65536 spans); when full, recording a new
    span evicts the oldest. *)

val disable : unit -> unit
(** Turn tracing off; recorded spans and counters remain readable. *)

val spans : unit -> span list
(** Retained spans, oldest first. *)

val span_count : unit -> int
(** Completed spans ever recorded (including evicted ones). *)

val evicted : unit -> int
(** How many spans the ring has dropped to stay within capacity. *)

module Span : sig
  type t

  val none : t
  (** A span that was never opened, as {!begin_} returns with tracing
      off: {!add_attr} and {!end_} ignore it. *)

  val begin_ : ?attrs:attr list -> category:string -> string -> t

  val add_attr : t -> string -> string -> unit
  (** Attach an attribute discovered after [begin_] (e.g. a result
      size). No-op on a disabled span. *)

  val end_ : t -> unit

  val with_ : ?attrs:attr list -> category:string -> string -> (unit -> 'a) -> 'a
  (** [with_ ~category name f] wraps [f] in a span; the span is ended on
      both normal return and exception. *)
end

module Counter : sig
  val incr : ?by:int -> string -> unit
  (** No-op while tracing is disabled. *)

  val value : string -> int

  val all : unit -> (string * int) list
  (** Sorted by name. *)
end

val charge : category:string -> float -> unit
(** [charge ~category dt] advances the calling process's virtual clock
    by [dt] (exactly like [Engine.sleep dt]) and, when tracing is
    enabled, attributes the charge to [category]. The uniform entry
    point for all simulated-time costs: the toolstack and the XenStore
    daemon call it directly at every cost site. *)

val charged : unit -> (string * float) list
(** Total virtual seconds charged per category, sorted by name. *)
