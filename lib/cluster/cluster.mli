(** The replicated-host control plane.

    A cluster is N identical hosts — each a full {!Vmm} endpoint —
    wired to a modeled top-of-rack switch, plus a {!Scheduler} that
    decides placement and a migration engine built on the toolstack's
    live migration. Hosts are grouped into racks (failure domains) that
    the spread policy respects.

    {b Determinism.} Cluster construction, placement, migration and
    rebalancing are all pure functions of the constructor arguments and
    the call sequence: host iteration is always in id order, migration
    victims are chosen by lowest domid, and the only randomness in the
    system stays inside the caller's explicitly-seeded fault injector.
    Equal seeds therefore give bit-identical cluster timelines for any
    [--jobs] (the cluster experiments pin this with digests).

    {b Loss accounting.} A migration that fails past every retransfer
    attempt loses the guest (see {!Vmm.vm_migrate}); that is a modeled
    outcome, not a resource leak. The cluster keeps a running total of
    the footprint freed by lost guests and {!resources} reports
    {e accounted} resources — live plus lost — so {!check_leak} stays
    an exact equality even across failed migrations. *)

type t

val create :
  hosts:int ->
  ?racks:int ->
  ?mode:Lightvm_toolstack.Mode.t ->
  ?pool_target:int ->
  policy:Scheduler.policy ->
  unit ->
  t
(** Boot [hosts] identical hosts (defaults as {!Vmm.create}) inside a
    running simulation, split into [racks] contiguous failure domains
    (default 1), and attach each to the switch on the port matching its
    id. Every host is warmed with one create+destroy cycle so that the
    shared store directories the first creation materialises exist
    everywhere — without this, resource snapshots would differ between
    a host that has hosted a VM and one that has not, and migration
    would look like a phantom on a fresh destination (see DESIGN.md
    "Failure model").

    Inside a {!Lightvm_sim.Engine.run_partitioned} with host partitions
    ({!Lightvm_sim.Engine.partition_count} [> 0]), host [i] owns
    partition [i + 1] (partition 0 is the control plane, where [create]
    runs): the host's switch port delivers into its partition, and
    callers dispatch per-host work there with
    {!Lightvm_sim.Engine.spawn_in} on partition [i + 1]. In a run
    without host partitions every port delivers on partition 0.
    Timelines are bit-identical either way as long as per-host work
    touches only that host's state and cross-host effects travel via
    the switch or completion posts (see DESIGN.md "Parallel
    simulation").

    @raise Invalid_argument when [hosts < 1], [racks] is not in
    [1..hosts], or the run has host partitions but fewer than
    [hosts]. *)

val host : t -> int -> Vmm.t
(** The lifecycle endpoint of host [i].
    @raise Invalid_argument when [i] is out of range. *)

val hosts : t -> Vmm.t list
(** All endpoints, by ascending host id. *)

val switch : t -> Lightvm_net.Switch.t
(** The modeled top-of-rack switch (control-plane traffic statistics
    live here). Shared state: in a partitioned run, send only from
    partition 0 (see {!Lightvm_net.Switch.send}). *)

val views : t -> Scheduler.host_view array
(** The scheduler's current picture of the cluster, indexed by host id:
    a fresh array the caller may change. Each view is read in O(1): the
    host's VM count is the size of its {!Vmm} registry
    ({!Vmm.vm_count}) and its free memory the hypervisor's frame
    counter. The cluster keeps its own array of views and, before each
    placement, replaces only the views of hosts whose count or free
    memory changed, so {!launch} allocates nothing per host. *)

(** {1 Placement} *)

type placement = {
  pl_host : int;  (** chosen host id *)
  pl_vm : Vmm.vm_info;
}

type error =
  | No_capacity of string  (** the scheduler found no feasible host *)
  | Api of { host : int; err : Vmm.error }
      (** a host-level API call failed *)

val error_to_string : error -> string

val announce : t -> src:int -> dst:int -> string -> unit
(** Send one control-plane packet on the switch (source and destination
    are host ports). Delivery is asynchronous after the forwarding
    latency, so announcing never blocks the caller or perturbs
    lifecycle timings. {!launch} announces automatically; callers that
    plan placements themselves (the partitioned experiment) use this to
    keep the control-plane traffic model identical. Call from
    partition 0 only in a partitioned run. *)

val launch : t -> Vmm.vm_create_request -> (placement, error) result
(** Place the request with the scheduler, then create the VM through
    the chosen host's {!Vmm} endpoint (announcing the placement on the
    switch). The guest's boot is in flight on return; await it with
    [Vmm.vm_boot (Cluster.host t pl.pl_host) ~domid:pl.pl_vm.vi_domid]. *)

val prefill_pools : t -> Lightvm_guest.Image.t -> nics:int -> disks:int -> unit
(** Warm the split-toolstack shell pool on {e every} host (the
    [Pool_everywhere] deployment; no-op in non-split modes). *)

(** {1 Migration, drain, rebalance} *)

(** Outcome of a multi-VM operation ({!drain} or {!rebalance}). *)
type move_report = {
  mv_attempted : int;  (** migrations tried *)
  mv_moved : int;  (** completed *)
  mv_lost : int;  (** guests lost to terminally-corrupted streams *)
  mv_stranded : int;  (** left in place (no feasible destination) *)
  mv_seconds : float;  (** simulated time the whole operation took *)
}

val drain : t -> host:int -> move_report
(** Evacuate every VM from [host], destinations chosen by the
    scheduler among the other hosts (lowest domid first, so the order
    is deterministic). The host itself stays up — refill it by
    launching or rebalancing. *)

val rebalance : t -> unit -> move_report
(** Move VMs one at a time from the fullest host to the emptiest
    (lowest-domid victim) until the spread between any two hosts is at
    most one VM, or [4 * vm_count] migrations have been attempted (a
    safety bound — the loop converges long before it on any real
    imbalance). *)

(** {1 Cluster-wide resource accounting} *)

val resources : t -> Vmm.resources
(** Accounted resources: the componentwise sum of every host's
    {!Vmm.resources} plus {!lost_resources}. Two snapshots around any
    self-contained workload (everything created was destroyed, losses
    only via failed migrations) must be equal — that is the cluster
    no-leak invariant. *)

val lost_resources : t -> Vmm.resources
(** Cumulative footprint of guests lost in failed migrations, measured
    as the resources the loss actually freed (source and destination
    inspected around the failing migration). *)

val check_leak : t -> before:Vmm.resources -> (unit, string) result
(** [Ok] when accounted {!resources} match [before] exactly, [Error s]
    naming every counter that drifted. A VM in flight between hosts
    when [before] was taken never trips this: migration moves its
    footprint between addends of the same sum, and a lost guest moves
    it into {!lost_resources}. *)
