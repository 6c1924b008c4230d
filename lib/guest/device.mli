(** Virtual device configurations shared by toolstack and guests. *)

type kind = Vif | Vbd | Sysctl

type config = {
  kind : kind;
  devid : int;
  backend_domid : int;  (** Dom0 in all paper experiments *)
  detail : string;  (** e.g. ["bridge=xenbr0"] or a disk spec *)
}

val vif : ?backend_domid:int -> ?bridge:string -> devid:int -> unit -> config

val vbd : ?backend_domid:int -> ?target:string -> devid:int -> unit -> config

val sysctl : ?backend_domid:int -> unit -> config
(** The noxs power-management pseudo-device (Section 5.1): its shared
    page and event channel carry suspend/shutdown requests. *)

val kind_to_string : kind -> string

val devpage_kind : kind -> Lightvm_hv.Devpage.kind

val frontend_dir : domid:int -> config -> Lightvm_xenstore.Xs_path.t
(** XenStore frontend directory, e.g.
    [/local/domain/5/device/vif/0]. Callers name its nodes with one
    {!Lightvm_xenstore.Xs_path.concat} each. *)

val backend_dir : domid:int -> config -> Lightvm_xenstore.Xs_path.t
(** XenStore backend directory, e.g. [/local/domain/0/backend/vif/5/0]. *)

val backend_domain_dir : domid:int -> config -> Lightvm_xenstore.Xs_path.t
(** The per-guest level above {!backend_dir}, e.g.
    [/local/domain/0/backend/vif/5]. Created implicitly by the first
    write under it; rollback removes this whole level so a failed
    creation leaves no empty parent behind. *)
