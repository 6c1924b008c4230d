(** A host's control plane: the hypervisor, the XenStore daemon, Dom0's
    store connection and backends, and the selected toolstack mode.
    It keeps no VMs and no shells: the creation pipeline ({!Create})
    runs on its {!env}, and on a host driven through the lifecycle API
    that API ([Lightvm_cluster.Vmm]) holds the host's registry of live
    VMs and the split toolstack's shell pools. *)

type t

val make :
  xen:Lightvm_hv.Xen.t ->
  mode:Mode.t ->
  ?xs_profile:Lightvm_xenstore.Xs_costs.profile ->
  ?costs:Costs.t ->
  unit ->
  t
(** Build the control plane on a booted hypervisor. *)

val env : t -> Create.env
(** What the creation pipeline, {!Checkpoint} and {!Migrate} run on. *)

val xen : t -> Lightvm_hv.Xen.t

val mode : t -> Mode.t

val costs : t -> Costs.t

val xs_server : t -> Lightvm_xenstore.Xs_server.t
