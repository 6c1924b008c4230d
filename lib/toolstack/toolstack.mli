(** Host-level toolstack facade: one value bundling the hypervisor, the
    XenStore daemon, Dom0 backends and the selected toolstack mode, with
    the shell pools of the split toolstack. It keeps no table of live
    VMs: {!create_vm} hands the caller the pipeline handle and
    {!destroy_vm} takes it back. On a host driven through the lifecycle
    API, that API's registry ([Lightvm_cluster.Vmm]) is the one table
    of live VMs. *)

type t

val make :
  xen:Lightvm_hv.Xen.t ->
  mode:Mode.t ->
  ?xs_profile:Lightvm_xenstore.Xs_costs.profile ->
  ?costs:Costs.t ->
  ?pool_target:int ->
  unit ->
  t
(** Build the control plane on a booted hypervisor. [pool_target] is
    the number of shells per flavor the chaos daemon maintains when the
    mode has the split toolstack (default 8). *)

val env : t -> Create.env

val xen : t -> Lightvm_hv.Xen.t

val mode : t -> Mode.t

val costs : t -> Costs.t

val xs_server : t -> Lightvm_xenstore.Xs_server.t

val create_vm :
  t -> ?config_text:string ->
  ?image_override:Lightvm_guest.Image.t ->
  Vmconfig.t -> (Create.created, string) result
(** Full creation via the mode's path. In split mode, takes a shell
    from the pool (background-refilled) so [create_time] covers only
    the execute phase. [Error msg] is a caught {!Create.Create_failed}
    — out of memory, hotplug timeout, or an injected fault — and
    implies the partial domain was already rolled back (nothing to
    clean up). On [Ok] the caller owns the handle: nothing here
    records the VM. *)

val create_vm_exn :
  t -> ?config_text:string ->
  ?image_override:Lightvm_guest.Image.t ->
  Vmconfig.t -> Create.created
(** {!create_vm} for callers that treat failure as fatal.
    @raise Create.Create_failed under the same conditions (and with
    the same already-rolled-back guarantee). *)

val destroy_vm : t -> Create.created -> unit
(** {!Create.destroy} on this host. *)

val prefill_pool : t -> Vmconfig.t -> unit
(** Warm the pool for this config's flavor up to the pool target
    (no-op unless the mode is split). *)

val pool_target : t -> Vmconfig.t -> int
(** Current low-water mark of this config's flavor pool ([0] when the
    mode is not split). *)

val set_pool_target : t -> Vmconfig.t -> int -> unit
(** Autoscaler hook: move the flavor pool's low-water mark. Raising it
    takes effect on the next take or {!prefill_pool}; lowering it
    immediately retires every surplus shell through
    {!Create.discard_shell}, releasing the shells' domains and store
    state (no-op unless the mode is split).
    @raise Invalid_argument on a negative target. *)

val pool_stats : t -> Vmconfig.t -> int * int
(** [(hits, takes)] of this config's flavor pool since host creation:
    [takes] counts shell requests, [hits] the ones served from a
    pre-created shell. [(0, 0)] unless the mode is split. *)

val shell_count : t -> int
(** Total pre-created shells across all flavors (these exist as paused
    domains, so they show up in the hypervisor's domain count). *)
