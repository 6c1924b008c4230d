(** The xenstored daemon.

    A single-threaded server: concurrent callers serialise on an
    internal mutex (exactly the real daemon's bottleneck — under load,
    operations queue). Every operation charges simulated time for the
    message protocol, daemon-side work proportional to the real data
    structures touched, watch-registry scans, access logging and
    rotation stalls, and — for writes of guest names — the linear
    uniqueness scan over all running guests described in the paper.

    Must be called from inside a running {!Lightvm_sim.Engine}
    simulation. *)

type t

type request =
  | Read of Xs_path.t
  | Write of Xs_path.t * string
  | Mkdir of Xs_path.t
  | Rm of Xs_path.t
  | Directory of Xs_path.t
  | Get_perms of Xs_path.t
  | Set_perms of Xs_path.t * Xs_perms.t
  | Watch of Xs_path.t * string
  | Unwatch of Xs_path.t * string
  | Transaction_start
  | Transaction_end of bool  (** commit? *)
  | Get_domain_path of int
  | Introduce of int
  | Release of int

type response =
  | Ok_unit
  | Ok_value of string
  | Ok_list of string list
  | Ok_perms of Xs_perms.t
  | Ok_txid of int
  | Ok_path of string
  | Err of Xs_error.t

(** Cumulative instrumentation, readable at any time through
    {!val-counters}. *)
type counters = {
  mutable ops : int;
  mutable watch_events : int;
  mutable tx_commits : int;
  mutable tx_conflicts : int;
  mutable uniqueness_cmps : int;
  mutable busy_time : float;  (** simulated seconds inside the daemon *)
}

val create : ?profile:Xs_costs.profile -> unit -> t
(** The default profile is {!Xs_costs.oxenstored}. A guest domain may
    own at most 1,000 nodes. *)

val store : t -> Xs_store.t

val counters : t -> counters
(** The daemon's counters, current as of this call. The integer
    counters are updated in place as requests run; [busy_time]
    accumulates apart, in an unboxed float, so that a charge allocates
    nothing, and is copied into the record by this call. Call it again
    for a later reading rather than keeping the record. *)

val watch_count : t -> int

val op : t -> caller:int -> ?tx:int -> request -> response
(** Perform one operation as domain [caller]. Blocks (simulated time)
    for queueing plus the operation's cost. [tx] routes reads and
    writes through an open transaction. Never raises: failures come
    back as [Err] — including injected ones (the [xs.equota] fault
    point can fail any node-creating request from Dom0, and
    [xs.eagain] can abort a [Transaction_end true]; see
    [lib/sim/fault.ml]).

    Node quota: a [Write] or [Mkdir] by a guest ([caller <> 0]) that
    would create a node fails with [EQUOTA] once the guest owns
    1,000 nodes. Inside a transaction both are checked against
    the transaction's view, which counts the nodes the transaction has
    created. Dom0 has no quota: only [xs.equota] can fail its plain
    writes and mkdirs and its transactional writes. *)

val scan_names : t -> caller:int -> string list
(** Every running guest's name, in [/local/domain] directory order —
    the store traffic behind libxl's name resolution. Modeled exactly
    as one [Directory] of [/local/domain] plus one [Read] of each
    child's [name] node (identical charges, counters and log lines to
    issuing those requests through {!op}; children without a name node
    are skipped like their [ENOENT]), but answered from a maintained
    host-side name index, so the host cost is O(guests) map iteration
    rather than O(guests) store walks. Raises {!Xs_error.Error} exactly
    where the per-request loop would ([ENOENT]/[EACCES] on the
    directory, [EACCES] on an unreadable name node). *)

val watch :
  t ->
  caller:int ->
  path:Xs_path.t ->
  token:string ->
  deliver:(Xs_watch.event -> unit) ->
  response
(** Register a watch with a delivery callback (the wire protocol's
    WATCH_EVENT push, as a function). The callback runs in a fresh
    simulation process after the delivery cost has elapsed, starting
    with the synthetic initial event the protocol mandates on
    registration. Watches are not quota'd; registration always returns
    [Ok_unit]. *)

val transaction :
  t -> caller:int -> (int -> ('a, Xs_error.t) result) ->
  ('a, Xs_error.t) result
(** [transaction t ~caller f] runs [f txid], committing afterwards and
    retrying the whole body on [EAGAIN] (the paper's retried
    transactions) with exponential client-side backoff, up to 8 times
    — after which [Error EAGAIN] is returned. An [Error] from the body
    itself aborts the transaction and is returned without retrying.
    Conflicts may be natural (a concurrent commit bumped the store
    generation) or injected via the [xs.eagain] fault point; both take
    the same retry path. *)

val handle_packet : t -> caller:int -> bytes -> bytes
(** Wire-level entry point: decode a {!Xs_wire} packet, perform the
    operation, encode the reply (with matching [req_id]/[tx_id]). Watch
    registrations through this interface drop their events. *)
