(** Guest-side noxs device bring-up — Figure 7b, steps 3 and 4.

    Instead of talking to the XenStore, the guest asks the hypervisor
    for its device page, maps it, and connects to each backend through
    the device control page and event channel found there. Three or four
    hypercalls, no daemon round-trips. *)

exception Connect_failed of string

val map_device_page :
  xen:Lightvm_hv.Xen.t -> domid:int -> Lightvm_hv.Devpage.entry list
(** Hypercall: discover + map the device page; returns its entries. *)

val connect :
  xen:Lightvm_hv.Xen.t ->
  ctrl:Ctrl.t ->
  domid:int ->
  Device.config ->
  unit
(** Bring up one frontend; blocks until the backend control-page state
    is Connected. *)
