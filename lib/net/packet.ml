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
