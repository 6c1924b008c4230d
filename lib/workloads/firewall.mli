(** Personal firewalls at the mobile edge (Section 7.1).

    A real 5-tuple rule engine (first-match semantics) provides the
    per-packet work; the capacity experiment then runs one ClickOS
    firewall VM per mobile user on a 14-core host, each user offering a
    10 Mbps flow, and reports aggregate throughput plus the
    scheduling-induced RTT of a ping through one of the VMs
    (Fig 16a). *)

(** {1 Rule engine} *)

type action = Allow | Drop

type rule = {
  src_prefix : int * int;  (** (address, mask bits) over int32-ish ints *)
  dst_prefix : int * int;
  proto : [ `Tcp | `Udp | `Icmp | `Any ];
  dport : int * int;  (** inclusive range; (0, 65535) = any *)
  rule_action : action;
}

type ruleset

type packet_info = {
  src_ip : int;
  dst_ip : int;
  pkt_proto : [ `Tcp | `Udp | `Icmp ];
  pkt_dport : int;
}

val rule :
  ?src:int * int -> ?dst:int * int -> ?proto:[ `Tcp | `Udp | `Icmp | `Any ] ->
  ?dport:int * int -> action -> rule

val compile : rule list -> default:action -> ruleset

val rule_count : ruleset -> int

val eval : ruleset -> packet_info -> action
(** First matching rule wins; [default] otherwise. *)

val personal_ruleset : user_id:int -> ruleset
(** The per-user firewall configuration the experiment deploys: block
    inbound except established/well-known, with some user-specific
    holes. *)

(** {1 Capacity experiment} *)

type point = {
  active_users : int;
  total_gbps : float;
  per_user_mbps : float;
  rtt_ms : float;
}

val capacity :
  ?platform:Lightvm_hv.Params.platform ->
  users:int list ->
  unit ->
  point list
(** For each user count: one firewall VM per user pinned round-robin on
    the guest cores, each offering 10 Mb/s ("typical 4G speeds in busy
    cells"); throughput from max-min fair CPU sharing, RTT from the
    run-queue length ahead of the ping VM. *)
