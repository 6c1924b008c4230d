(** Event channels: Xen's virtual interrupt lines.

    The lifecycle mirrors the real ABI: one side allocates an unbound
    port naming the expected peer ([alloc_unbound]), the peer binds to
    it ([bind_interdomain]), and either side can then [notify] the
    other, which runs the handler the receiving domain registered for
    its port. *)

type t

type port = int

type error = Invalid_port | Wrong_domain | Already_bound | Not_bound

val create : unit -> t

val alloc_unbound : t -> domid:int -> remote:int -> port
(** A fresh port owned by [domid], bindable only by [remote]. *)

val bind_interdomain :
  t -> domid:int -> remote:int -> remote_port:port -> (port, error) result
(** Bind caller's fresh local port to the peer's unbound port. *)

val set_handler : t -> domid:int -> port:port -> (unit -> unit) -> unit
(** Handler invoked (in a fresh simulation process) when the peer
    notifies. Replaces any previous handler. *)

val notify : t -> domid:int -> port:port -> (unit, error) result
(** Fire the event to whoever is bound at the other end. Succeeds even
    if the peer has no handler (the event is then lost, as a real
    masked interrupt would be). *)

val close : t -> domid:int -> port:port -> (unit, error) result

val close_all : t -> domid:int -> int
(** Close every port owned by the domain; returns how many. *)

val close_peers_of : t -> domid:int -> int
(** Close every {e other} domain's port that is bound to [domid] or
    unbound-but-reserved for it; returns how many. Models the peer-side
    teardown domain destruction triggers: after {!close_all} the dead
    domain's peers hold dangling endpoints no one will ever rebind. *)

val ports_of : t -> domid:int -> port list

val count : t -> int
(** Open endpoints across all domains (unbound ports count one; a bound
    pair counts two). For leak accounting — see [Lightvm_cluster.Vmm.resources]. *)
