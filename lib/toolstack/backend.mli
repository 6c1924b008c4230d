(** Dom0 back-end drivers (netback/blkback).

    Two bring-up paths, matching Figure 7:

    - {b XenStore}: the toolstack writes the backend directory; the
      back-end watches the frontend's state node and completes the
      handshake (read ring/event-channel, map, bind, flip to Connected)
      when the guest publishes its half.
    - {b noxs}: the toolstack issues a pre-creation ioctl; the back-end
      synchronously allocates the device control page and an unbound
      event channel, and returns their identifiers for the hypervisor's
      device page. The handshake then runs over shared memory when the
      guest kicks the event channel. *)

type t

exception Alloc_failed of string
(** A backend resource allocation (grant-table slot or event channel)
    failed during {!precreate_device}. Raised only at the fault points
    [gnttab.alloc] / [evtchn.alloc] (see [Lightvm_sim.Fault]); the
    backend releases anything it had already allocated for the device
    before raising, so the caller only has to undo fully pre-created
    devices. *)

val create :
  xen:Lightvm_hv.Xen.t ->
  xs:Lightvm_xenstore.Xs_client.t option ->
  ctrl:Lightvm_guest.Ctrl.t ->
  costs:Costs.t ->
  t

val fresh_mac : t -> string
(** Xen-prefixed MAC (00:16:3e:...), sequential. *)

val watch_token : domid:int -> Lightvm_guest.Device.config -> string
(** The token of the watch {!watch_device} registers. *)

val watch_device :
  t -> domid:int -> Lightvm_guest.Device.config -> unit
(** XenStore path: register the persistent frontend-state watch for a
    device whose backend directory the toolstack just created. *)

val precreate_device :
  t -> domid:int -> Lightvm_guest.Device.config -> int * int
(** noxs path (the ioctl): returns [(grant_ref, evtchn_port)] to be
    written into the domain's device page.

    @raise Alloc_failed under injected grant-table or event-channel
    allocation failure; partially-allocated resources are released
    first. *)

val destroy_device :
  t -> domid:int -> Lightvm_guest.Device.config -> grant_ref:int -> unit
(** noxs teardown of a live device (unoptimized, per Section 6.2):
    charges the destroy cost and unregisters the control page. *)

val abort_precreated :
  t ->
  domid:int ->
  Lightvm_guest.Device.config ->
  grant_ref:int ->
  port:int ->
  unit
(** Rollback of a {!precreate_device} whose guest never booted: closes
    the unbound event channel, unregisters the control page and revokes
    the grant. All three are owned by the backend domain, so destroying
    the guest would not reclaim them — the creation pipeline calls this
    for every pre-created device when a create fails mid-way. *)
