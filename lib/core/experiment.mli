(** Reproductions of every figure in the paper's evaluation (Section 6)
    and use cases (Section 7), and the families beyond the paper. Each
    is one declaration in {!experiments}: its id and figure, the paper's
    statement, its default scale and bench sizes, its jobs and their
    merge, and the snapshot families it owns. {!val-plan} names one,
    {!run_plan} runs it; {!prefixes}, {!snapshot_to_file} and
    {!resume_from_file} reach the families' images.

    The per-experiment index lives in DESIGN.md; paper-vs-measured
    numbers in EXPERIMENTS.md. *)

module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table

type labelled = {
  label : string;
  series : Series.t;
}

type partition = [ `Host | `None ]
(** How the multi-host jobs lay out their hosts: [`Host] runs each
    simulated host in its own partition of a
    {!Lightvm_sim.Engine.run_partitioned} (conservative synchronization,
    the modeled switch latency as the lookahead) on up to [sim_jobs]
    cores; [`None] runs the identical workload on one heap. Both modes,
    at any [sim_jobs], produce bit-identical output
    (test/test_partition.ml pins this). *)

val partition_name : partition -> string

val partition_of_string : string -> (partition, string) result
(** Parses ["host"] and ["none"] (the [--partition] flag). *)

type args = {
  n : int option;
      (** the scale: guests, clients or requests, the figure's dominant
          axis; [None] runs the experiment's default *)
  partition : partition;
  sim_jobs : int;
  spec : Lightvm_sim.Fault.spec option;
      (** [None] runs each fault family's built-in spec *)
  fault_seed : int64;
      (** seeds the fault streams and the serverless request streams *)
}
(** The settings of a run, passed to every job and suffix. An output is
    a pure function of [n], [spec] and [fault_seed]; an empty [spec]
    consumes no randomness. *)

val default_args : args
(** No [n], [`Host], one core, the built-in specs and fault seed 42. *)

val reliability_default_spec : string
(** The fault spec [reliability] and [serverless]'s faults cell run
    without one: XenStore conflicts and quota rejections, mid-pipeline
    phase failures, hotplug hangs and backend allocation failures, each
    at a low base probability (see DESIGN.md "Failure model"). Parses
    with [Lightvm_sim.Fault.parse_spec]. *)

val cluster_fault_spec : string
(** The drains' fault spec without one: ["migrate.corrupt:0.6"]. *)

(** {1 Plans}

    A plan is a list of independent jobs — one per curve, mode or cell,
    each a self-contained simulation with explicit Rng seeds — plus a
    merge of their pieces, in job order, into one {!type-result}. Because
    jobs share no state, {!run_plan}'s output is bit-identical for any
    [jobs] count (see test/test_parallel.ml). *)

type result = {
  name : string;
  figure : string;  (** paper figure or section, e.g. ["Fig 5"] *)
  series : labelled list;
  tables : Table.t list;
  notes : string list;
}

type piece = {
  p_series : labelled list;
  p_tables : Table.t list;
  p_notes : string list;
}
(** One job's contribution to an experiment's output. *)

type plan = {
  plan_jobs : (string * (unit -> piece)) list;
      (** labelled jobs, e.g. ["fig9/lightvm"]; label order is merge
          order *)
  plan_finish : piece list -> result;
}

type family
(** A snapshot family: images of the state its suffix starts from, and
    the one suffix that both a job and {!resume_from_file} run. *)

type experiment = {
  id : string;
  figure : string;
  paper : string;  (** the paper's statement the result is read against *)
  default_n : int option;  (** [n] when the args give none *)
  sizes : (int * int * int) option;
      (** the bench's [n] at quick, medium and full scale *)
  jobs : args -> (string * (unit -> piece)) list;
  finish : piece list -> piece;
  families : family list;
}

val experiments : experiment list
(** The registry, in [lightvm_cli list] order. *)

val names : string list
(** The experiment ids, in registry order. *)

val plans : args -> (string * plan) list
(** Every experiment's plan, by id. *)

val plan : args -> string -> (plan, string) Stdlib.result
(** The named plan. [Error] for an unknown id (the message lists the
    valid ones) and for [n < 1], with the message {!resume_from_file}
    gives. *)

val run_plan : ?jobs:int -> plan -> result
(** Run the plan's jobs on a fresh {!Lightvm_sim.Pool} of [jobs]
    workers ([jobs <= 1], the default, runs them inline on the calling
    domain) and merge. *)

(** {1 Snapshot and resume}

    Every job runs as one unbroken simulation. A family also names the
    state its suffix starts from as a {e prefix} image: captured
    ({!Lightvm_sim.Engine.run_partitioned_capture}), frozen to bytes
    ({!Lightvm_sim.Checkpoint.freeze}) and written to disk by
    {!snapshot_to_file}; {!resume_from_file} runs the family's suffix
    from the file in a later process. A suffix run from an image renders
    bit-identically to the same suffix run unbroken
    (test/test_checkpoint.ml pins this for every listed key across the
    jobs x partition matrix). *)

type prefix = {
  prefix_key : string;
      (** on-disk config string, e.g. ["scale:chaos-xs@2000"]; the text
          before [':'] names the family *)
  prefix_describe : string;  (** one-line human description *)
  prefix_build : unit -> string;
      (** simulate the prefix and return the frozen image bytes *)
  prefix_run :
    args -> [ `Unbroken | `Image of string ] -> (result, string) Stdlib.result;
      (** the family's suffix as {!resume_from_file} runs it: [`Unbroken]
          simulates prefix and suffix in one run, [`Image bytes] thaws
          bytes from [prefix_build] first. Both render identically. *)
}

val prefixes : args -> prefix list
(** Every family's images, sized by [n] and laid out by [partition] and
    [sim_jobs]. *)

val snapshot_to_file :
  args -> key:string -> path:string -> (string, string) Stdlib.result
(** Build the named prefix and write it to [path] with the versioned
    {!Lightvm_sim.Checkpoint} header (config = [key]). [Ok] carries the
    prefix description; [Error] an explanation (unknown key, i/o
    failure, unquiesced prefix). *)

val resume_from_file : args -> path:string -> (result, string) Stdlib.result
(** Load a snapshot written by {!snapshot_to_file} and run the suffix of
    the family its stored key names (the text before [':']) on one
    worker. The image gives the mode, the guest and host counts and its
    partitions; [n], [spec] and [fault_seed] come from the args, with
    the owning experiment's defaults. [Error] for [n < 1], an unknown
    family, a header mismatch (wrong magic, format version, producing
    binary) or a payload that fails its digest, with the structured
    reason — never garbage state. *)

(** {1 Serverless hooks}

    The open-loop serverless family's CLI and bench surface (DESIGN.md
    section 12). *)

val serverless_rate : float
(** Mean arrival rate of the family's calibrated cells, req/s — chosen
    inside the VM policies' dom0 creation capacity so Poisson tails
    reflect queueing, not unbounded overload. *)

val serverless_run :
  ?duration:float ->
  arrival:string ->
  rate:float ->
  policy:string ->
  args ->
  (result, string) Stdlib.result
(** One configurable cell from CLI flag values: [arrival] is
    ["poisson"], ["diurnal"] or ["mmpp"]; [policy] is ["coldboot"],
    ["warmpool"] or ["container"]. [duration] (simulated seconds of
    arrivals) wins over [n] (a request budget) when both are given.
    [spec] injects creation faults, which surface as failed requests.
    [Error] on an unknown arrival or policy name, for [n < 1], and
    unless [rate] and the run's duration are finite and positive (see
    {!Lightvm_serverless.Arrival.of_flag}). *)

val serverless_bench_summary : requests:int -> float * float * float
(** [(cold_p99_us, warm_p99_us, warm_hit_rate)] for the flagship
    Poisson pair at the family seeds — the bench's JSON fields, and
    CI's warm-beats-cold assertion. *)

val xenstore_dump : count:int -> string
(** Boot [count] daytime guests on one chaos [XS] host and dump its
    XenStore: every node's path, value and permissions, then the
    daemon's counters. This is the text [lightvm_cli xenstore] prints,
    and its digest is a line of [test/digests.txt]. *)
