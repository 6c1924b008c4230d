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
  noxs_ids : int array;
      (** noxs mode: device [i]'s control-page grant at [2i] and its
          event-channel port at [2i + 1]; empty under XenStore *)
  create_time : float;  (** toolstack time for the on-path phases *)
  breakdown : breakdown;
}

(** {1 Failures}

    Every step that can fail returns [Error reason] instead of raising.
    By then the partially-built domain has been rolled back: devices
    pre-created in phase 5 are torn down (backend nodes and watches, or
    noxs grants, ctrl pages and event channels), the
    [/local/domain/<domid>] subtree, xl's [/vm/<domid>] registration
    and shutdown watch are removed, and the domain is destroyed, so a
    failed creation leaks nothing ([Lightvm_cluster.Vmm.check_leak]
    asserts this; see DESIGN.md "Failure model"). The reasons are out
    of memory, a config parse error, an unknown kernel, a duplicate
    name (xl), a refused store operation, a backend allocation failure,
    a hotplug timeout, or an injected fault (the [create.phase1] to
    [create.phase9] points, plus [evtchn.alloc], [gnttab.alloc],
    [hotplug.hang], [xs.eagain] and [xs.equota] firing inside phases 4,
    5 and 7; see [lib/sim/fault.ml]). *)

val failure_reason : exn -> string
(** The reason of a failure the toolstack expects: the pipeline's own
    aborts, {!Backend.Alloc_failed}, {!Hotplug.Timeout} and
    [Lightvm_xenstore.Xs_error.Error]. The pipeline applies it where it
    rolls back; {!Checkpoint} applies it to a failed suspend request.
    Any other exception is a bug, and [failure_reason] re-raises it. *)

val shutdown_path : int -> Lightvm_xenstore.Xs_path.t
(** A guest's [/local/domain/<domid>/control/shutdown] node: xl watches
    it for the guest's lifetime and a classic suspend writes it. *)

val effective_mem_mb : env -> Vmconfig.t -> float
(** Applies the 4 MB toolstack floor unless the mode carries the
    paper's footnote-1 patch. *)

val prepare :
  env -> mem_mb:float -> vcpus:int -> nics:int -> disks:int ->
  ?breakdown:breakdown -> unit -> (shell, string) result
(** Phases 1-5. [Error] on out-of-memory, a refused store operation, an
    allocation failure, a hotplug timeout or an injected fault; the
    partial shell is rolled back first. *)

val discard_shell : env -> shell -> unit
(** Tear down a pre-created shell that will never be executed (pool
    scale-down): releases the domain and everything {!prepare} acquired
    for it, restoring the host's resource counts exactly. The shell
    must not be reused afterwards. *)

val execute :
  env -> shell -> since:float -> ?config_text:string ->
  ?image_override:Lightvm_guest.Image.t -> Vmconfig.t ->
  ?breakdown:breakdown -> unit -> (created, string) result
(** Phases 6-9. The guest's boot process is spawned; use
    [Guest.wait_ready created.guest] to block until it is up.
    [create_time] counts from [since], the moment the caller started
    the creation (before taking or preparing the shell).
    [image_override] bypasses the kernel-name lookup (restore path).
    [Error] on a config parse error, an unknown kernel, a refused store
    operation, a hotplug timeout or an injected fault; the shell {e and}
    everything this call built are rolled back first, so the shell
    must not be reused. *)

val create :
  env -> ?config_text:string -> ?image_override:Lightvm_guest.Image.t ->
  Vmconfig.t -> (created, string) result
(** prepare + execute inline (the non-split path, and restore, which
    passes the quiesced guest's image as [image_override]). [Error] as
    {!prepare} and {!execute} return it. *)

val destroy : env -> created -> unit
(** Tear down devices, registry state and the domain. *)
