(** Placement policies for the cluster control plane.

    A scheduler picks the host for each new VM from a snapshot of
    per-host state ({!host_view}) supplied by the control plane.
    Everything is deterministic: the decision is a pure function of the
    views (plus, for the round-robin policy, an explicit cursor carried
    in {!type-t}), so equal request sequences place identically on every
    run — the property the cluster experiments' digests pin. *)

(** A policy name, as selected on the CLI. *)
type policy =
  | Binpack
      (** tightest feasible fit: the host with the least free memory
          that still fits the VM (lowest id on ties) — maximises
          density, fills host 0 first on an empty cluster *)
  | Spread
      (** failure-domain-aware balancing: the host in the least-loaded
          rack, least-loaded (then most-free, then lowest-id) within
          it — never co-locates two VMs in one rack while an empty
          rack still has capacity *)
  | Pool_everywhere
      (** the paper's split-toolstack deployment: shell pools are
          prefilled on {e every} host and VMs round-robin across them,
          so each creation finds a warm shell locally *)

val policies : policy list

val policy_name : policy -> string

(** What the scheduler sees of one host. *)
type host_view = {
  hv_id : int;  (** host index in the cluster *)
  hv_rack : int;
      (** failure domain: a non-negative rack index (indices need not
          be contiguous) *)
  hv_vms : int;  (** VMs currently placed there *)
  hv_free_kb : int;  (** free host memory *)
}

type t
(** A scheduler instance: the policy plus its mutable cursor state
    (only {!Pool_everywhere} has any). *)

val make : policy -> t

val place : t -> hosts:host_view array -> mem_kb:int -> (int, string) result
(** Pick the host for a VM needing [mem_kb] of free memory. [Ok id] is
    the chosen host's [hv_id]; [Error _] means no host has that much
    memory free. Hosts may be passed in any order — ties are broken on
    [hv_id], never on array position. [hosts] is only read.

    Cost: O(hosts) for every policy. The host is picked in a single
    pass over [hosts] with integer comparisons — no sorting and no
    per-host allocation. {!Spread} first sums each rack's VMs over
    every view given, infeasible hosts included.
    @raise Invalid_argument under {!Spread} when a view has a negative
    [hv_rack]. *)
