(** Reproductions of every figure in the paper's evaluation (Section 6)
    and use cases (Section 7). Each function runs one or more complete
    simulations and returns the figure's data as labelled series or a
    table; sizes default to laptop-friendly scales and accept the
    paper's full parameters (see the [?n]-style arguments).

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
    identical workload in a plain single-heap {!Lightvm_sim.Engine.run}.
    Both modes, at any [sim_jobs], produce bit-identical output
    (test/test_partition.ml pins this). *)

type partition = [ `Host | `None ]

val partition_name : partition -> string

val partition_of_string : string -> (partition, string) result
(** Parses ["host"] and ["none"] (the [--partition] flag). *)

val fig1_syscall_growth : unit -> Table.t * float
(** The Linux syscall-count table and its per-year growth slope. *)

val fig2_boot_vs_image_size : ?sizes_mb:float list -> unit -> Series.t
(** Boot time (ms) of the daytime unikernel vs image size (MB),
    images inflated with binary objects, stored on a ramdisk. *)

val fig4_instantiation : ?n:int -> unit -> labelled list
(** Creation and boot time series (x = number of running guests,
    y = ms) for Debian/Tinyx/unikernel under xl, Docker containers and
    processes. Paper scale: [n = 1000]. *)

val fig5_breakdown : ?n:int -> ?sample:int -> unit -> labelled list
(** xl + Debian creation-time breakdown: one series per category
    (xenstore, devices, toolstack, load, hypervisor, config). *)

val fig9_create_times : ?n:int -> unit -> labelled list
(** Creation+boot of the daytime unikernel under all five toolstack
    combinations. *)

val scale_creation : ?n:int -> unit -> labelled list
(** The Fig 9 creation sweep pushed to the simulator's 10,000-guest
    design target for xl, chaos [XS] and chaos [NoXS]; each mode runs
    one simulation whose 2000/5000/10000-guest prefixes (capped by
    [?n]) yield every count's curve, sampled to ~20 points per curve.
    xl stops at 2000: its modeled libxl protocol is Θ(N²) simulated
    round trips, so the quadratic trend is established early and chaos
    [XS] carries the full-scale XenStore stress. A final partitioned
    row brings the same top-count population up as 8 concurrent chaos
    [XS] hosts, one partition each (see {!type-partition}). *)

val reliability_default_spec : string
(** The fault spec the [reliability] experiment runs when none is given
    on the command line: XenStore conflicts and quota rejections,
    mid-pipeline phase failures, hotplug hangs and backend allocation
    failures, each at a low base probability (see DESIGN.md "Failure
    model"). Parses with [Lightvm_sim.Fault.parse_spec]. *)

val fig10_density :
  ?vms:int -> ?containers:int -> unit -> labelled list
(** LightVM (noop unikernel, no devices) vs Docker on the 64-core AMD
    machine. Paper scale: [vms = 8000]; Docker wedges around 3000. *)

val fig11_boot_compare : ?n:int -> unit -> labelled list
(** Unikernel and Tinyx guests over LightVM vs Docker containers. *)

val fig12_checkpoint :
  ?n:int -> ?batch:int -> unit -> labelled list * labelled list
(** (save series, restore series) per toolstack mode; each round adds
    [batch] guests and checkpoints [batch] random ones. *)

val fig13_migration : ?n:int -> ?batch:int -> unit -> labelled list

val fig14_memory : ?n:int -> ?sample:int -> unit -> labelled list
(** Total memory usage (MB) vs instance count for Debian, Tinyx,
    Minipython unikernel, Docker and processes. *)

val fig15_cpu_usage :
  ?n:int -> ?sample:int -> ?window:float -> unit -> labelled list
(** Idle CPU utilisation (%% of the whole machine) vs guest count. *)

val fig16a_firewall : ?users:int list -> unit -> Table.t
(** Aggregate throughput and ping RTT for up to 1000 ClickOS firewalls. *)

val fig16b_jit :
  ?arrivals:float list -> ?clients:int -> unit -> labelled list
(** Ping-RTT CDFs for several client inter-arrival times. *)

val fig16c_tls : ?instances:int list -> unit -> labelled list
(** TLS termination throughput vs instance count for bare metal, Tinyx
    and the axtls unikernel. *)

val fig17_18_lambda :
  ?requests:int -> unit -> labelled list * labelled list
(** (Fig 17 service-time series, Fig 18 concurrency-over-time series)
    for chaos [XS] vs LightVM on the overloaded host. *)

val ablation_xenstore : ?n:int -> unit -> labelled list
(** Design-choice ablation: chaos [XS] creation times under oxenstored,
    cxenstored (the paper's "much higher overheads" footnote), and
    oxenstored with access logging disabled (removes the rotation
    spikes but not the growth). *)

val pause_unpause : unit -> Table.t
(** Section 2's third requirement: pausing/unpausing a guest must be as
    quick as freezing/thawing a container. *)

val wan_migration : unit -> Table.t
(** Migration over a 1 Gbps / 10 ms RTT link (Section 7.1 reports
    ~150 ms for a ClickOS guest). *)

val headline_numbers : unit -> Table.t
(** The abstract's numbers: 2.3 ms boot, save/restore/migrate times,
    image sizes and footprints — paper vs this reproduction. *)

val tinyx_table : unit -> Table.t
(** Section 3.2 build-system numbers for several applications. *)

(** {1 Uniform result API}

    Every experiment above is also reachable through {!all} (or {!find})
    and returns the same {!result} record, so front ends dispatch and
    render generically instead of pattern-matching per-figure shapes. *)

type result = {
  name : string;
  figure : string;  (** paper figure or section, e.g. ["Fig 5"] *)
  series : labelled list;
  tables : Table.t list;
  notes : string list;
}

val all : (string * (unit -> result)) list
(** Experiments at their default (laptop-friendly) scales, keyed by
    name ([fig1] ... [fig18], [scale], [ablation], [pause],
    [wan-migration], [headline], [tinyx]). *)

val names : string list

val registry :
  ?n:int ->
  ?partition:partition ->
  ?sim_jobs:int ->
  unit ->
  (string * (unit -> result)) list
(** Like {!all} with the scale knob (guests/clients/requests — the
    figure's dominant axis) overridden where the experiment has one,
    and the partitioning of the multi-host families (default [`Host]
    with [sim_jobs = 1]: the partitioned engine, windows run inline). *)

val find :
  ?n:int ->
  ?partition:partition ->
  ?sim_jobs:int ->
  string ->
  (unit -> result) option

(** {1 Plans: parallel execution}

    A {!plan} decomposes an experiment into independent jobs — one per
    curve or mode, each a self-contained simulation with its own
    {!Lightvm_sim.Engine.run} and explicit Rng seeds — plus a merge of
    the resulting pieces in fixed job order. Because jobs share no
    state, a job's piece is identical whether it runs inline or on a
    {!Lightvm_sim.Pool} worker, and {!run_plan}'s output is
    bit-identical for any [jobs] count (see test/test_parallel.ml). *)

type piece = {
  p_series : labelled list;
  p_tables : Table.t list;
  p_notes : string list;
}
(** One job's contribution to an experiment's output. *)

type plan = {
  plan_name : string;
  plan_figure : string;
  plan_jobs : (string * (unit -> piece)) list;
      (** labelled jobs, e.g. ["fig9/lightvm"]; label order is merge
          order *)
  plan_finish : piece list -> piece;
      (** merge, given pieces in job order; usually concatenation *)
}

val plans :
  ?n:int ->
  ?partition:partition ->
  ?sim_jobs:int ->
  unit ->
  (string * plan) list
(** Same registry as {!registry}, as plans. *)

val reliability_plan :
  ?n:int ->
  ?spec:Lightvm_sim.Fault.spec ->
  ?fault_seed:int64 ->
  unit ->
  plan
(** The [reliability] experiment with an explicit fault spec and seed
    (defaults: {!reliability_default_spec} parsed, seed 42). For each
    of xl, chaos [XS] and chaos [NoXS] at fault multipliers 0/1/2/4 it
    attempts [n] creations (default 200) and reports a per-mode success
    -rate series, per-cell creation-time CDFs, and notes with injected
    -fault counts. Output is a pure function of [(n, spec, fault_seed)]
    — identical for any [jobs] count. An empty [spec] consumes no
    randomness and leaves every digest byte-identical. *)

val cluster_fault_spec : string
(** The migration-fault spec the [cluster] drain job runs when none is
    given explicitly: ["migrate.corrupt:0.6"]. *)

val cluster_plan :
  ?n:int ->
  ?spec:Lightvm_sim.Fault.spec ->
  ?fault_seed:int64 ->
  ?partition:partition ->
  ?sim_jobs:int ->
  unit ->
  plan
(** The [cluster] experiment family: a multi-host cluster (up to 20
    hosts across 4 racks, sized from [n]) brings up [n] guests (default
    500) once per scheduling policy — bin-pack, spread, pool-everywhere.
    Placements are planned by the policy against bookkept views and
    announced on the switch from the control plane; every host then
    creates its assigned guests concurrently (in its own partition with
    [partition = `Host], the default), and the job records per-guest
    create+boot latency plus the final placement distribution. A fourth
    job drains host 0 by live migration under the injected fault [spec]
    (default {!cluster_fault_spec} parsed, seed 42), rebalances, and
    reports the cluster-wide resource accounting check (that job is
    single-heap: migration is cross-partition state motion). Output is
    a pure function of [(n, spec, fault_seed)] — identical for any
    [jobs]/[sim_jobs] count and both partition modes. *)

val plan :
  ?n:int -> ?partition:partition -> ?sim_jobs:int -> string -> plan option

val job_count : plan -> int

val run_plan : ?jobs:int -> plan -> result
(** Run the plan's jobs on a fresh {!Lightvm_sim.Pool} of [jobs]
    workers ([jobs <= 1], the default, runs them inline on the calling
    domain) and merge. [registry]'s runners are [run_plan] with the
    default. *)

(** {1 Snapshot and resume}

    Every experiment above runs each of its jobs as one unbroken
    simulation. Seven families also name the state their suffix starts
    from as a {e prefix} image: [scale] (a host booted to N guests),
    [scale-fleet] (the partitioned row at its wave-1 barrier),
    [reliability] (a warmed-up host), [cluster] and [cluster-scale]
    (the cluster with all its guests running, before the drain),
    [serverless] (a host with its warm pool prefilled) and
    [serverless-day] (the prefilled fleet). An image is captured
    ({!Lightvm_sim.Engine.run_capture}), frozen to bytes
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
    [Error] on an unknown arrival or policy name. *)

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
