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
  seq : int;
  payload : string;
}

let default_size = function
  | Arp_request | Arp_reply | Icmp_echo | Icmp_reply -> 64
  | Udp | Tcp -> 1500

let make ~src ~dst ~kind ?(payload = "") ~seq () =
  { src; dst; kind; size_b = default_size kind + String.length payload; seq;
    payload }

let kind_to_string = function
  | Arp_request -> "arp-request"
  | Arp_reply -> "arp-reply"
  | Icmp_echo -> "icmp-echo"
  | Icmp_reply -> "icmp-reply"
  | Udp -> "udp"
  | Tcp -> "tcp"

let pp fmt t =
  Format.fprintf fmt "%s %d->%s seq=%d" (kind_to_string t.kind) t.src
    (match t.dst with Addr a -> string_of_int a | Broadcast -> "*")
    t.seq
