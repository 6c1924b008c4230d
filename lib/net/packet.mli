(** Packets on the software switch. Addresses are small integers (port
    ids double as MAC addresses); [Broadcast] reaches every port except
    the sender's. *)

type addr = Addr of int | Broadcast

type kind =
  | Arp_request
  | Arp_reply
  | Icmp_echo
  | Icmp_reply
  | Udp
  | Tcp

type t = {
  src : int;
  dst : addr;
  kind : kind;
  size_b : int;
  seq : int;  (** correlates requests with replies *)
  payload : string;  (** application data, e.g. a control-plane message *)
}

val make :
  src:int -> dst:addr -> kind:kind -> ?payload:string -> seq:int -> unit -> t
(** Sizes: 64 B for ARP/ICMP, 1500 B otherwise, plus the payload
    length. *)
