(** The per-host VM lifecycle API.

    One [Vmm.t] is the management endpoint of one simulated host —
    hypervisor, XenStore daemon, Dom0 backends and toolstack — exposed
    through a cloud-hypervisor-shaped surface: [ping], [vm_create],
    [vm_boot], [vm_pause]/[vm_resume], [vm_delete], [vm_info],
    [vm_counters], [vm_list], plus [vm_snapshot]/[vm_restore] and
    [vm_migrate] (the [vm.send-migration] analogue). Every operation
    takes and returns typed records and reports failure as a structured
    {!type-error}: no lifecycle call raises.

    A [Vmm.t] is also the host's VM registry: one table keyed by domid
    holds every live VM with its lifecycle state, and experiments name
    a VM by its domid alone. A VM enters the registry when
    {!vm_create}, {!vm_restore} or an incoming {!vm_migrate} returns,
    and leaves it on {!vm_delete}, {!vm_snapshot} or an outgoing
    {!vm_migrate}, including one that returns [Vm_migration_failed]:
    the registry holds a VM exactly when its domain exists. It also
    owns the split toolstack's shell pools (pre-created domains, one
    pool per VM shape) and chooses between a pooled shell and inline
    creation. The toolstack below ([Lightvm_toolstack.Toolstack]) is
    only the host's control plane and keeps neither.

    This module is the only way a VM is created, moved or destroyed:
    experiments, workloads, the CLI, the bench harness and the cluster
    control plane all go through it. The API layer itself charges no
    simulated time: costs are exactly the underlying toolstack's. *)

type t
(** A host's management endpoint. *)

val api_version : string
(** Reported by {!ping}, in the style of cloud-hypervisor's
    [VmmPingResponse]. *)

val create :
  ?host_id:int ->
  ?platform:Lightvm_hv.Params.platform ->
  ?mode:Lightvm_toolstack.Mode.t ->
  ?xs_profile:Lightvm_xenstore.Xs_costs.profile ->
  ?costs:Lightvm_toolstack.Costs.t ->
  ?pool_target:int ->
  unit ->
  t
(** Boot a host inside a running simulation and return its endpoint.
    Defaults: host 0, the paper's 4-core Xeon, full LightVM mode (chaos
    + noxs + split toolstack, xendevd, min-memory patch), oxenstored
    cost profile, default toolstack costs, and 8 shells per flavor
    ([pool_target]) when the mode has the split toolstack. [host_id]
    only labels the endpoint (cluster position); it does not affect
    behaviour. *)

(** {1 Requests, responses and errors} *)

(** Lifecycle state of a VM as the API reports it. [Created] is a VM
    whose creation pipeline completed but whose guest has not been
    awaited via {!vm_boot} yet (its boot process is already running in
    the background, as the pipeline spawns it). *)
type vm_state = Created | Running | Paused

(** Structured failures. The toolstack below returns its failures as
    values; they reach the caller as these. *)
type error =
  | Vm_not_found of int  (** no VM with that domid on this host *)
  | Vm_bad_state of {
      domid : int;
      state : vm_state;
      op : string;  (** the operation that was attempted *)
    }  (** e.g. booting a paused VM *)
  | Vm_failed of {
      op : string;  (** the operation, e.g. ["vm.create"] *)
      reason : string;
    }
      (** the operation failed and changed nothing: a create or restore
          whose partial domain was rolled back (out of memory, a
          refused store operation, a hotplug timeout or an injected
          fault), a snapshot or migration whose suspend request failed
          (the VM keeps running), or a pause or resume the hypervisor
          refused *)
  | Vm_migration_failed of string
      (** the guest was lost mid-migration: the source domain is
          destroyed at suspend time, so a stream corrupted past every
          retransfer attempt (or a destination that cannot host the
          guest) loses the VM — the [xl migrate] failure mode *)

val error_to_string : error -> string

type vm_create_request = {
  req_name : string option;
      (** VM name; default ["<image>-<k>"] from the host's counter *)
  req_image : Lightvm_guest.Image.t;
  req_nics : int;
  req_disks : int;
  req_config_text : string option;
      (** raw xl-style config text, parsed by the pipeline's config
          phase (overrides nothing else; mirrors passing a file to
          [chaos create]) *)
}

val vm_request :
  ?name:string ->
  ?nics:int ->
  ?disks:int ->
  ?config_text:string ->
  Lightvm_guest.Image.t ->
  vm_create_request
(** Build a request. Defaults: generated name, 1 nic, 0 disks. *)

type vm_info = {
  vi_domid : int;
  vi_name : string;
  vi_state : vm_state;
  vi_image : string;  (** image name *)
  vi_memory_mb : float;  (** configured guest memory *)
  vi_vcpus : int;
  vi_nics : int;
  vi_disks : int;
}

type vm_counters = {
  vc_create_s : float;
      (** toolstack time for the on-path creation phases *)
  vc_boot_s : float;  (** guest boot time; [0.] until {!vm_boot} *)
  vc_breakdown : (string * float) list;
      (** per-category creation-time attribution (the paper's Figure 5
          categories), as [(category, seconds)] in canonical order *)
}

type ping = {
  pg_version : string;
  pg_host_id : int;
  pg_vm_count : int;
}

(** {1 The lifecycle API} *)

val ping : t -> ping
(** Liveness probe; free (charges no simulated time). *)

val vm_create : t -> vm_create_request -> (vm_info, error) result
(** Run the full creation pipeline for the request (in split mode,
    taking a pre-created shell from the pool). On [Ok] the VM is
    registered in state [Created] and its guest boot process is
    running; on [Error (Vm_failed _)] the partial domain was already
    rolled back. *)

val vm_boot : t -> domid:int -> (unit, error) result
(** Block until the guest has finished booting and mark it [Running].
    Idempotent once booted; [Error (Vm_bad_state _)] on a paused VM. *)

val vm_pause : t -> domid:int -> (unit, error) result
(** Pause the domain (one hypercall, the Section 2 freeze/thaw
    requirement). *)

val vm_resume : t -> domid:int -> (unit, error) result

val vm_delete : t -> domid:int -> (unit, error) result
(** Tear down devices, registry state and the domain. Works from any
    state (running, paused or never-awaited). *)

val vm_info : t -> domid:int -> (vm_info, error) result

val vm_counters : t -> domid:int -> (vm_counters, error) result

val vm_list : t -> vm_info list
(** Live VMs by ascending domid. *)

val vm_count : t -> int
(** Live VMs on this host: the size of the registry. *)

(** {1 Snapshot, restore, migration} *)

val vm_snapshot :
  t -> domid:int -> (Lightvm_toolstack.Checkpoint.saved, error) result
(** Suspend the guest, dump its memory to the ramdisk and destroy the
    domain (the [vm.snapshot] + delete flow): on [Ok] the VM is gone
    from this host and the returned handle restores it. On
    [Error (Vm_failed _)] the suspend request was refused and the VM
    keeps running. *)

val vm_restore :
  t -> Lightvm_toolstack.Checkpoint.saved -> (vm_info, error) result
(** Rebuild the domain through the creation pipeline and reconnect the
    quiesced guest. The restored VM is registered in state [Created];
    use {!vm_boot} to await frontend reconnection. On
    [Error (Vm_failed _)] the partial domain was rolled back and the
    saved handle can be restored again. *)

val vm_migrate :
  src:t -> dst:t -> domid:int -> (vm_info * Lightvm_toolstack.Migrate.stats, error) result
(** Live(ish) migration between two endpoints, built on
    [Lightvm_toolstack.Migrate]: ship the config, suspend at the
    source, stream memory, resume at the destination. On [Ok] the VM is
    registered on [dst] (state [Created]; {!vm_boot} awaits resume) and
    gone from [src]. On [Error (Vm_failed _)] the source refused the
    suspend request and the VM keeps running there. On
    [Error (Vm_migration_failed _)] the guest is lost: already
    destroyed at the source, never resumed at the destination (the
    caller can aggregate the loss — see [Cluster.check_leak]). *)

(** {1 Host plumbing}

    Escape hatches for the layers below and around the API: the
    cluster control plane, experiments that instrument hypervisor
    internals, and the resource-leak invariant checks. *)

val xen : t -> Lightvm_hv.Xen.t

val toolstack : t -> Lightvm_toolstack.Toolstack.t

val mode : t -> Lightvm_toolstack.Mode.t

val platform : t -> Lightvm_hv.Params.platform

val guest_mem_kb : t -> int
(** Memory held by guests (excluding Dom0/Xen), for the Fig 14
    accounting. *)

val prefill_pool :
  t -> Lightvm_guest.Image.t -> nics:int -> disks:int -> unit
(** Warm the split-toolstack shell pool for this image's flavor up to
    the pool target, stopping at the first shell that cannot be built
    (no-op unless the mode is split). *)

val pool_target :
  t -> Lightvm_guest.Image.t -> nics:int -> disks:int -> int
(** The flavor pool's current low-water mark ([0] unless split). *)

val set_pool_target :
  t -> Lightvm_guest.Image.t -> nics:int -> disks:int -> int -> unit
(** Autoscaler hook: move the flavor pool's low-water mark. Lowering it
    immediately retires surplus shells through
    {!Lightvm_toolstack.Create.discard_shell}, releasing their domains,
    frames and store state exactly; raising it takes effect on the next
    take or {!prefill_pool} (no-op unless the mode is split).
    @raise Invalid_argument on a negative target. *)

val pool_stats :
  t -> Lightvm_guest.Image.t -> nics:int -> disks:int -> int * int
(** [(hits, takes)] for this image's flavor pool: shell requests served
    from a pre-created shell vs total. The serverless experiments
    report [hits / takes] as the warm-pool hit rate. *)

(** {1 Resource accounting}

    A snapshot of every countable resource a VM creation acquires:
    guest domains, allocated frames, event-channel endpoints,
    grant-table entries, noxs control pages, XenStore nodes and
    watches. Two snapshots are comparable with [( = )]; they also form
    a commutative group under {!add_resources}/{!sub_resources}, which
    is what lets the cluster layer aggregate hosts and account for
    guests lost in failed migrations. *)

type resources = {
  r_domains : int;
  r_mem_kb : int;
  r_evtchns : int;
  r_grants : int;
  r_ctrl_pages : int;
  r_xs_nodes : int;
  r_xs_watches : int;
}

val resources : t -> resources
(** The host's current resource counts. Deterministic: a pure function
    of the simulation state, usable inside digest-pinned experiments. *)

val zero_resources : resources

val add_resources : resources -> resources -> resources

val sub_resources : resources -> resources -> resources

val diff_resources : before:resources -> after:resources -> string list
(** Human-readable list of counters that changed, empty when none did. *)

val check_leak : t -> before:resources -> (unit, string) result
(** Post-failure invariant check (see DESIGN.md "Failure model"): [Ok]
    when the host's resource counts match [before] exactly, [Error s]
    naming every leaked counter otherwise. Call with a snapshot taken
    before a creation attempt to assert that a failed create released
    everything it had acquired. *)
