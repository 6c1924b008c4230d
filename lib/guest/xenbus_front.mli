(** Guest-side xenbus device bring-up — the classic (pre-noxs) path of
    Figure 7a.

    The toolstack has already written frontend and backend directories;
    the front-end driver reads its directory, allocates a shared ring
    and an event channel, publishes them, and then waits for the
    back-end to flip its state to Connected. Every step is real
    XenStore traffic from the guest, which is exactly the load noxs
    eliminates. *)

(** XenbusState, as in xen/include/public/io/xenbus.h. *)
type xenbus_state =
  | Initialising
  | Init_wait
  | Initialised
  | Connected
  | Closing
  | Closed

val state_to_wire : xenbus_state -> string
(** The numeric string written to the store ("1".."6"). *)

val state_of_wire : string -> xenbus_state option

exception Connect_failed of string

val connect :
  xs:Lightvm_xenstore.Xs_client.t ->
  xen:Lightvm_hv.Xen.t ->
  domid:int ->
  Device.config ->
  unit
(** Bring up one frontend; blocks until the backend reports Connected.
    [xs] must be the guest's own XenStore connection (so permissions
    and protocol costs are attributed to the guest). *)
