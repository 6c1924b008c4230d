(** Device control pages (noxs, Section 5.1).

    Under noxs, front- and back-end exchange device information — state,
    MAC address, ring details — through a shared page referenced by the
    grant in the VM's device page, instead of through XenStore entries.
    This module is that shared memory: a registry of structured pages
    keyed by [(backend_domid, grant_ref)], with write-once connection
    rendezvous for the two sides. *)

type state = Init | Front_ready | Connected | Closing | Closed

type page

type t

val create : unit -> t

val register :
  t -> backend_domid:int -> grant_ref:int -> mac:string -> page
(** Called by the back-end when pre-creating a device. *)

val find : t -> backend_domid:int -> grant_ref:int -> page
(** @raise Not_found when no page is registered there. *)

val unregister : t -> backend_domid:int -> grant_ref:int -> unit

val mac : page -> string

val front_state : page -> state

val back_state : page -> state

val set_front_state : page -> state -> unit

val set_back_state : page -> state -> unit
(** Setting [Connected] wakes anyone blocked in {!await_connected}. *)

val set_front_port : page -> int -> unit

val front_port : page -> int
(** The port the frontend bound; 0 (no port) until {!set_front_port}. *)

val await_connected : page -> unit
(** Block (simulated time) until the back-end reports [Connected]. *)

val count : t -> int
(** Registered control pages. For leak accounting — see
    [Lightvm_cluster.Vmm.resources]. *)
