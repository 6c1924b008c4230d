(** Reproductions of every figure in the paper's evaluation (Section 6)
    and use cases (Section 7). Each experiment is a {!type-plan} in the
    {!plans} registry: {!val-plan} names it, {!run_plan} runs its complete
    simulations and returns the figure's data as labelled series,
    tables and notes. Sizes default to laptop-friendly scales and
    accept the paper's full parameters through [?n].

    The per-experiment index lives in DESIGN.md; paper-vs-measured
    numbers in EXPERIMENTS.md. *)

module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table

type labelled = {
  label : string;
  series : Series.t;
}

(** {1 Partitioned simulation}

    The multi-host families ([scale]'s partitioned row and the
    [cluster] policy jobs) can run each simulated host in its own
    partition of a {!Lightvm_sim.Engine.run_partitioned} — conservative
    synchronization with the modeled top-of-rack switch latency as the
    lookahead — executing on up to [sim_jobs] cores. [`None] runs the
    identical workload on one heap, partition 0 alone, as
    {!Lightvm_sim.Engine.run} does.
    Both modes, at any [sim_jobs], produce bit-identical output
    (test/test_partition.ml pins this). *)

type partition = [ `Host | `None ]

val partition_name : partition -> string

val partition_of_string : string -> (partition, string) result
(** Parses ["host"] and ["none"] (the [--partition] flag). *)

val reliability_default_spec : string
(** The fault spec the [reliability] experiment runs when none is given
    on the command line: XenStore conflicts and quota rejections,
    mid-pipeline phase failures, hotplug hangs and backend allocation
    failures, each at a low base probability (see DESIGN.md "Failure
    model"). Parses with [Lightvm_sim.Fault.parse_spec]. *)

val cluster_fault_spec : string
(** The migration-fault spec the [cluster] and [cluster-scale] drain
    jobs run when none is given explicitly: ["migrate.corrupt:0.6"]. *)

(** {1 Plans: the one way to run an experiment}

    Every experiment is a {!type-plan}: a list of independent jobs — one per
    curve, mode or cell, each a self-contained simulation with its own
    {!Lightvm_sim.Engine.run} and explicit Rng seeds — plus a merge of
    the resulting pieces, in fixed job order, into one {!type-result}. Front
    ends dispatch and render generically instead of pattern-matching
    per-figure shapes. Because jobs share no state, a job's piece is
    identical whether it runs inline or on a {!Lightvm_sim.Pool} worker,
    and {!run_plan}'s output is bit-identical for any [jobs] count (see
    test/test_parallel.ml). *)

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
      (** merge, given pieces in job order; usually concatenation *)
}

val plans :
  ?n:int ->
  ?partition:partition ->
  ?sim_jobs:int ->
  ?spec:Lightvm_sim.Fault.spec ->
  ?fault_seed:int64 ->
  unit ->
  (string * plan) list
(** Every experiment, keyed by name ([fig1] ... [fig18], [scale],
    [reliability], [ablation], [pause], [wan-migration], [headline],
    [tinyx], [cluster], [cluster-scale], [serverless],
    [serverless-day]; the per-experiment index is in DESIGN.md).

    - [n] overrides the scale knob (guests, clients or requests — the
      figure's dominant axis) where the experiment has one; each
      experiment otherwise runs at its own laptop-friendly default.
    - [partition] and [sim_jobs] lay out the multi-host families
      ([scale]'s partitioned row, the cluster policy jobs and the
      serverless fleets): default [`Host] with [sim_jobs = 1], the
      partitioned engine with windows run inline.
    - [spec] and [fault_seed] reach the families that inject faults:
      [reliability] (default {!reliability_default_spec}), the
      [cluster] and [cluster-scale] drains (default
      {!cluster_fault_spec}) and [serverless]'s faults cell (default
      {!reliability_default_spec}). [fault_seed] (default 42) seeds
      them, and every [serverless] cell's streams. Each such output is
      a pure function of [(n, spec, fault_seed)]; an empty [spec]
      consumes no randomness. *)

val names : string list
(** The experiment names, in {!plans} order. *)

val plan :
  ?n:int ->
  ?partition:partition ->
  ?sim_jobs:int ->
  ?spec:Lightvm_sim.Fault.spec ->
  ?fault_seed:int64 ->
  string ->
  (plan, string) Stdlib.result
(** The named entry of {!plans}. [Error] for an unknown name (the
    message lists the valid ones) and for [n < 1], with the same
    message {!resume_from_file} gives. *)

val run_plan : ?jobs:int -> plan -> result
(** Run the plan's jobs on a fresh {!Lightvm_sim.Pool} of [jobs]
    workers ([jobs <= 1], the default, runs them inline on the calling
    domain) and merge. *)

(** {1 Snapshot and resume}

    Every experiment above runs each of its jobs as one unbroken
    simulation. Seven families also name the state their suffix starts
    from as a {e prefix} image: [scale] (a host booted to N guests),
    [scale-fleet] (the partitioned row at its wave-1 barrier),
    [reliability] (a warmed-up host), [cluster] and [cluster-scale]
    (the cluster with all its guests running, before the drain),
    [serverless] (a host with its warm pool prefilled) and
    [serverless-day] (the prefilled fleet). An image is captured
    ({!Lightvm_sim.Engine.run_partitioned_capture}), frozen to bytes
    ({!Lightvm_sim.Checkpoint.freeze}) and written to disk by
    {!snapshot_to_file}; {!resume_from_file} runs the family's suffix
    from the file in a later process. A suffix run from an image
    renders bit-identically to the same suffix run unbroken
    (test/test_checkpoint.ml pins this for every listed key across the
    jobs x partition matrix). *)

type prefix = {
  prefix_key : string;
      (** on-disk config string, e.g. ["scale:chaos-xs@2000"],
          ["scale-fleet:host@10000"], ["reliability:xl"],
          ["cluster:drain@500"], ["serverless:warm@4"]; the text before
          [':'] names the family *)
  prefix_describe : string;  (** one-line human description *)
  prefix_build : unit -> string;
      (** simulate the prefix and return the frozen image bytes *)
  prefix_run :
    ?n:int ->
    ?spec:Lightvm_sim.Fault.spec ->
    ?fault_seed:int64 ->
    [ `Unbroken | `Image of string ] ->
    (result, string) Stdlib.result;
      (** the family's suffix, with {!resume_from_file}'s arguments and
          defaults: [`Unbroken] simulates prefix and suffix in one run;
          [`Image bytes] thaws bytes from [prefix_build] and runs the
          suffix from them. Both render identically. *)
}

val prefixes :
  ?n:int -> ?partition:partition -> ?sim_jobs:int -> unit -> prefix list
(** Every prefix image of the families at this scale, addressable by
    name. *)

val snapshot_to_file :
  ?n:int ->
  ?partition:partition ->
  ?sim_jobs:int ->
  key:string ->
  path:string ->
  unit ->
  (string, string) Stdlib.result
(** Build the named prefix and write it to [path] with the versioned
    {!Lightvm_sim.Checkpoint} header (config = [key]). [Ok] carries the
    prefix description; [Error] an explanation (unknown key, i/o
    failure, unquiesced prefix). *)

val resume_from_file :
  ?n:int ->
  ?spec:Lightvm_sim.Fault.spec ->
  ?fault_seed:int64 ->
  path:string ->
  unit ->
  (result, string) Stdlib.result
(** Load a snapshot written by {!snapshot_to_file} and run the suffix
    of the family its stored key names (the text before [':']). Every
    other suffix parameter is read off the thawed image — the mode,
    the guest and host counts, and whether it was captured partitioned
    — and the resumed run uses one worker.

    - [scale] images are extended by [n] more creations (default a
      tenth of the image's count) and re-rendered;
    - [scale-fleet] images run their second wave;
    - [reliability] images run an [n]-attempt (default 200)
      fault-injection cell under [spec] (default
      {!reliability_default_spec}) and [fault_seed];
    - [cluster] and [cluster-scale] drain images drain host 0 under
      [spec] (default {!cluster_fault_spec}) and [fault_seed];
    - [serverless] warm-pool images serve the family's [n]-request
      (default 2000) Poisson warm-pool cell, under [spec] when given,
      with its stream seed derived from [fault_seed];
    - [serverless-day] fleet images run the [n]-request (default 8000)
      day, stream seed derived from [fault_seed].

    [Error] for [n < 1], an unknown family name, a header mismatch
    (wrong magic, format version, producing binary) or a payload that
    fails its digest, with the structured reason — never garbage
    state. *)

(** {1 Serverless hooks}

    The open-loop serverless family's CLI, test and bench surface
    (DESIGN.md section 12; the family itself runs via the
    ["serverless"] plan). *)

val serverless_rate : float
(** Mean arrival rate of the family's calibrated cells, req/s — chosen
    inside the VM policies' dom0 creation capacity so Poisson tails
    reflect queueing, not unbounded overload. *)

val serverless_run :
  ?n:int ->
  ?duration:float ->
  ?spec:Lightvm_sim.Fault.spec ->
  ?fault_seed:int64 ->
  arrival:string ->
  rate:float ->
  policy:string ->
  unit ->
  (result, string) Stdlib.result
(** One configurable cell from CLI flag values: [arrival] is
    ["poisson"], ["diurnal"] or ["mmpp"]; [policy] is ["coldboot"],
    ["warmpool"] or ["container"]. [duration] (simulated seconds of
    arrivals) wins over [n] (a request budget) when both are given.
    [spec] injects creation faults, which surface as failed requests.
    [Error] on an unknown arrival or policy name, for [n < 1], and
    unless [rate] and the run's duration are finite and positive (see
    {!Lightvm_serverless.Arrival.of_flag}). *)

val serverless_fleet :
  requests:int ->
  partition:partition ->
  sim_jobs:int ->
  seed:int64 ->
  unit ->
  piece
(** The multi-host fleet cell: independent warm-pool nodes, one per
    host partition (or all on the single heap with [`None]), merged in
    host order — bit-identical across the jobs x partition matrix. *)

val serverless_bench_summary :
  ?requests:int -> unit -> float * float * float
(** [(cold_p99_us, warm_p99_us, warm_hit_rate)] for the flagship
    Poisson pair at the family seeds — the bench's JSON fields, and
    CI's warm-beats-cold assertion. *)

val xenstore_dump : count:int -> string
(** Boot [count] daytime guests on one chaos [XS] host and dump its
    XenStore: every node's path, value and permissions, then the
    daemon's counters. This is the text [lightvm_cli xenstore] prints,
    and its digest is a line of [test/digests.txt]. *)
