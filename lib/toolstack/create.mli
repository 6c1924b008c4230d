(** The VM creation pipeline of Figure 8, instrumented like Figure 5.

    Creation runs nine steps: (1) hypervisor reservation, (2) compute
    allocation, (3) memory reservation, (4) memory preparation,
    (5) device pre-creation — the {e prepare} phase — then
    (6) configuration parsing, (7) device initialization, (8) image
    build, (9) VM boot — the {e execute} phase. Without the split
    toolstack both phases run inline at [chaos create]/[xl create]
    time; with it, prepare runs in the background daemon and only
    execute is on the critical path.

    Every step attributes its simulated time to one of the paper's
    Figure 5 categories. *)

type category =
  | Cat_parse
  | Cat_hypervisor
  | Cat_xenstore
  | Cat_devices
  | Cat_load
  | Cat_toolstack

val categories : category list

val category_name : category -> string

type breakdown

val breakdown_create : unit -> breakdown

val breakdown_get : breakdown -> category -> float

val breakdown_total : breakdown -> float

(** Everything the pipeline needs from the host. *)
type env = {
  xen : Lightvm_hv.Xen.t;
  xs_server : Lightvm_xenstore.Xs_server.t;
  xs : Lightvm_xenstore.Xs_client.t;  (** Dom0's connection *)
  ctrl : Lightvm_guest.Ctrl.t;
  backend : Backend.t;
  mode : Mode.t;
  costs : Costs.t;
  shells : int ref;  (** shells prepared so far (names shell-1, -2, …) *)
}

(** A pre-created VM shell (output of the prepare phase). *)
type shell

(** A fully created VM. *)
type created = {
  domid : int;
  vm_name : string;
  config : Vmconfig.t;
  guest : Lightvm_guest.Guest.t;
  devices : Lightvm_guest.Device.config list;
  noxs_grants : (Lightvm_guest.Device.config * int) list;
      (** control-page grant per device, noxs mode only *)
  create_time : float;  (** toolstack time for the on-path phases *)
  breakdown : breakdown;
}

exception Create_failed of string
(** The single failure exit of the pipeline. Lower-level aborts
    ([Backend.Alloc_failed], [Hotplug.Timeout]) and injected faults
    (the [create.phase1]..[create.phase9] points, plus [evtchn.alloc],
    [gnttab.alloc] and [hotplug.hang] firing inside phases 5 and 7 —
    see [lib/sim/fault.ml]) are all normalised to it, so callers have
    one retry/cleanup contract. By the time it reaches the caller the
    partially-built domain has been rolled back: devices pre-created
    in phase 5 are torn down (backend nodes and watches, or noxs
    grants/ctrl pages/event channels), the [/local/domain/<domid>]
    subtree, xl's [/vm/<domid>] registration and shutdown watch are
    removed, and the domain is destroyed — a failed creation leaks
    nothing ([Lightvm_cluster.Vmm.check_leak] asserts this; see DESIGN.md
    "Failure model"). *)

val shutdown_path : int -> Lightvm_xenstore.Xs_path.t
(** A guest's [/local/domain/<domid>/control/shutdown] node: xl watches
    it for the guest's lifetime and a classic suspend writes it. *)

val effective_mem_mb : env -> Vmconfig.t -> float
(** Applies the 4 MB toolstack floor unless the mode carries the
    paper's footnote-1 patch. *)

val prepare :
  env -> mem_mb:float -> vcpus:int -> nics:int -> disks:int ->
  ?breakdown:breakdown -> unit -> shell
(** Phases 1-5.
    @raise Create_failed on out-of-memory, an allocation failure or an
    injected fault; the partial shell is rolled back first. *)

val discard_shell : env -> shell -> unit
(** Tear down a pre-created shell that will never be executed (pool
    scale-down): releases the domain and everything {!prepare} acquired
    for it, restoring the host's resource counts exactly. The shell
    must not be reused afterwards. *)

val execute :
  env -> shell -> ?config_text:string ->
  ?image_override:Lightvm_guest.Image.t -> Vmconfig.t ->
  ?breakdown:breakdown -> unit -> created
(** Phases 6-9. The guest's boot process is spawned; use
    [Guest.wait_ready created.guest] to block until it is up.
    [image_override] bypasses the kernel-name lookup (restore path).
    @raise Create_failed on a config parse error, unknown kernel,
    hotplug timeout or injected fault; the shell {e and} everything
    this call built are rolled back first, so the shell must not be
    reused. *)

val create :
  env -> ?config_text:string -> ?image_override:Lightvm_guest.Image.t ->
  Vmconfig.t -> created
(** prepare + execute inline (the non-split path, and restore, which
    passes the quiesced guest's image as [image_override]).
    @raise Create_failed as {!prepare} and {!execute} do. *)

val destroy : env -> created -> unit
(** Tear down devices, registry state and the domain. *)
