(** A running guest: the simulation process that boots the VM's kernel,
    brings up its device frontends (via xenbus or noxs), starts the
    application, and then generates the image's idle background load
    until stopped.

    Guest boot consumes CPU on the domain's assigned core, so boot time
    degrades with core contention exactly as in the paper's Figure 11. *)

type registry =
  | Xenbus of Lightvm_xenstore.Xs_client.t
      (** classic path; the client is the guest's own connection *)
  | Noxs of Ctrl.t  (** noxs path, with the control-page registry *)

type t

val start :
  xen:Lightvm_hv.Xen.t ->
  registry:registry ->
  domid:int ->
  image:Image.t ->
  devices:Device.config list ->
  unit ->
  t
(** Spawn the guest's boot process (returns immediately). *)

val wait_ready : t -> unit
(** Block until the guest has finished booting. *)

val booted : t -> bool

val boot_time : t -> float
(** Seconds from [start] to ready. Raises [Invalid_argument] before
    boot completes. *)

val image : t -> Image.t

val devices : t -> Device.config list

val shutdown : t -> unit
(** Stop the idle load and mark the guest down (guest-side part of
    shutdown/suspend; charges the guest's save work). A restore starts
    a new guest. *)
