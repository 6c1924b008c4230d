(** Open-loop serverless traffic onto an autoscaling VM pool
    (ROADMAP item 2; DESIGN.md section 12).

    The paper's Lambda use case (Figs 17/18) runs closed-loop — the
    next request waits for the previous. This module is the open-loop
    production regime: an {!Arrival} process fires function invocations
    at its own pace (at the default 2000 req/s a simulated day is ~170
    million requests); a FIFO dispatcher with [concurrency] instance
    slots admits them; each admitted request acquires a fresh VM (or
    container) through the configured {!policy}, runs its function body
    as guest CPU on the host's processor-sharing model, and releases
    the instance. Per-request latency (arrival to completion) streams
    into a {!Lightvm_metrics.Quantiles} accumulator so runs report
    p50/p99/p999, alongside a queue-depth-over-time series and the
    warm-pool hit rate.

    Determinism: every stochastic element (arrival gaps, service
    draws) comes from splitmix streams derived from [seed], and all
    simulation state is local to the calling partition, so a node's
    output is a pure function of its config — bit-identical whatever
    the [--jobs] count or partition mode (test/test_serverless.ml pins
    the matrix). *)

(** How an admitted request obtains its instance. *)
type policy =
  | Cold_boot
      (** full creation pipeline per request on a non-split host (the
          xl/chaos regime: every request pays create + boot) *)
  | Warm_pool
      (** the paper's split toolstack: requests take pre-created
          shells from {!Lightvm_toolstack.Pool}, a background daemon
          refills, and the {!autoscaler} moves the pool target with
          load *)
  | Container  (** Docker baseline: [docker run] per request *)

val policy_name : policy -> string

val policy_of_string : string -> (policy, string) result
(** Parses ["coldboot"], ["warmpool"] and ["container"]. *)

(** The {!Warm_pool} autoscaler (state machine in DESIGN.md section
    12): sampled every [interval] simulated seconds, doubles the pool
    target towards [max_target] while the dispatcher queue is deeper
    than the scale-up threshold, and halves it towards [min_target]
    after [idle_rounds] consecutive idle samples — surplus shells are
    retired immediately and completely
    ({!Lightvm_cluster.Vmm.set_pool_target}). *)
type autoscaler = {
  min_target : int;
  max_target : int;
  interval : float;  (** seconds between control decisions *)
  idle_rounds : int;  (** idle samples before scaling down *)
}

val default_autoscaler : autoscaler

type config = {
  arrival : Arrival.process;
  duration : float;
      (** seconds of open-loop arrivals; the run then drains the
          backlog, so the makespan exceeds [duration] under overload *)
  service_mean : float;
      (** mean of the exponential per-request function time, seconds *)
  concurrency : int;  (** dispatcher instance slots *)
  policy : policy;
  autoscaler : autoscaler;  (** consulted by {!Warm_pool} only *)
  seed : int64;
      (** root of the node's arrival and service streams; derive
          per-host seeds from it for fleets *)
}

val default_config :
  ?arrival:Arrival.process -> ?duration:float -> policy -> config
(** 2000 req/s Poisson for [duration] (default 5 s), 1 ms mean
    service, 12 slots, seed 42. *)

type stats = {
  requests : int;  (** arrivals admitted or queued *)
  completed : int;
  failures : int;
      (** failed instance acquisitions (injected cold-boot faults, out
          of memory, a wedged container engine); the request is
          consumed, not retried *)
  latency : Lightvm_metrics.Quantiles.t;
      (** arrival-to-completion seconds of completed requests *)
  queue_depth : Lightvm_metrics.Series.t;
      (** (simulated seconds, requests queued + in service) sampled
          over the run *)
  pool_hits : int;  (** shell takes served from the pool *)
  pool_takes : int;  (** total shell takes ([0] unless {!Warm_pool}) *)
  peak_target : int;  (** highest pool target the autoscaler reached *)
  makespan : float;  (** arrival start to last completion, seconds *)
}

val hit_rate : stats -> float
(** [pool_hits / pool_takes]; [0.] when there were no takes. *)

val percentile_note : label:string -> stats -> string
(** One-line digest-stable summary: p50/p99/p999 in microseconds, mean,
    completion counts and the pool hit rate. *)

val warm_pool : Lightvm_cluster.Vmm.t -> target:int -> unit
(** Set the function-instance flavor's pool target on a split-toolstack
    host and synchronously prefill it (the flavor is the same one
    {!run_node} creates from, so takes hit). Prefilling never parks a
    background process, so a host warmed this way can be captured into
    a checkpoint snapshot image. *)

val run_node : config -> Lightvm_cluster.Vmm.t -> stats
(** Drive one node's full open-loop run against [host] from inside a
    running simulation (the caller owns the enclosing
    {!Lightvm_sim.Engine.run} and the host's partition). The host must
    match the policy: a split-toolstack mode for {!Warm_pool}, any mode
    for {!Cold_boot} (its creations bypass the pool only if the mode is
    not split — pass a non-split host for a true cold baseline).
    {!Container} ignores [host]'s toolstack and runs a Docker engine on
    an equivalent machine. Blocks until the backlog has drained. *)

(** {1 Queueing core}

    The policy-independent dispatcher, exposed so tests can check the
    measured waiting behaviour against M/M/k theory without any VM
    plumbing in the loop. *)

val run_open_loop :
  ?control:float * (int -> unit) ->
  gen:Arrival.gen ->
  service_rng:Lightvm_sim.Rng.t ->
  duration:float ->
  concurrency:int ->
  service_mean:float ->
  sample_every:float ->
  invoke:(int -> float -> bool) ->
  pool_stats:(unit -> int * int) ->
  unit ->
  stats
(** [invoke idx service_s] performs one admitted request (acquire,
    serve, release) and reports success; [pool_stats ()] is sampled
    once at the end for the hit-rate fields. [control] is an optional
    [(interval, decide)] loop given the instantaneous system depth
    (queued + in service) every [interval] seconds — the autoscaler
    plugs in here. [run_node] is this with the policy's invoke. *)

val erlang_c_wait : rate:float -> service_mean:float -> servers:int -> float
(** Analytic M/M/k mean waiting time (Erlang C), seconds — the
    reference the sanity test compares measured means against.
    Requires a stable system ([rate * service_mean < servers]). *)
