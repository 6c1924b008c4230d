(** noxs device memory pages (Section 5.1).

    For each VM the hypervisor keeps one special page listing the VM's
    devices: kind, backend domain, grant reference for the device
    control page, and event-channel port. Dom0 writes entries through a
    hypercall; the owning guest maps the page read-only and uses it to
    connect its frontends without ever touching the XenStore. *)

type kind = Vif | Vbd | Sysctl

type entry = {
  kind : kind;
  devid : int;
  backend_domid : int;
  grant_ref : int;
  evtchn_port : int;
}

type error = No_page | Access_denied | Page_full | No_entry

type t

val create : unit -> t

val setup : t -> domid:int -> unit
(** Allocate the (empty) device page for a new domain. *)

val teardown : t -> domid:int -> unit

val write_entry :
  t -> caller:int -> domid:int -> entry -> (unit, error) result
(** Dom0 only. Replaces an existing entry with the same kind+devid. *)

val read : t -> caller:int -> domid:int -> (entry list, error) result
(** The guest itself or Dom0; read-only mapping semantics. *)

val find :
  t -> caller:int -> domid:int -> kind:kind -> devid:int ->
  (entry, error) result
