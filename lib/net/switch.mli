(** A learning software bridge (the Linux bridge / Open vSwitch in
    Dom0).

    Ports deliver packets to callbacks. The bridge learns source
    addresses, floods unknown destinations and broadcasts, and has a
    finite packets-per-second capacity enforced by a token bucket —
    when offered load exceeds it, packets drop. Broadcasts (ARP) are
    dropped first, reproducing the overload behaviour in the paper's
    just-in-time instantiation experiment ("our Linux bridge is
    overloaded and starts dropping packets (mostly ARP packets)"). *)

type t

val default_latency : float
(** The forwarding latency (30 us). Partitioned experiments use
    this as the conservative-sync lookahead, so every switch-carried
    message legally crosses partitions (see
    {!Lightvm_sim.Engine.run_partitioned}). *)

val create : ?capacity_pps:float -> unit -> t
(** Default: 300k pps. The bucket holds a burst of 2,048 packets.
    Every switch forwards after {!default_latency}. *)

val attach :
  ?partition:int -> t -> port:int -> handler:(Packet.t -> unit) -> unit
(** Attach an endpoint; replaces any previous handler on that port.
    [partition] declares which partition of a
    {!Lightvm_sim.Engine.run_partitioned} owns the port: its packets
    are then delivered via {!Lightvm_sim.Engine.post}, so the handler
    runs inside that partition. Delivery timing is identical with or
    without a partition (the forwarding latency). The partition must
    exist in the run that delivers to the port: a delivery to a
    partition the run lacks raises [Invalid_argument]. *)

val detach : t -> port:int -> unit

val send : t -> Packet.t -> unit
(** Inject a packet at its source port. Delivery happens after the
    forwarding latency; drops are silent (counted). The switch itself
    (token bucket, learning table, counters) is shared state: in a
    partitioned run, call [send] only from one partition per switch —
    the cluster sends from partition 0, the toolstack's home. *)

val learned : t -> int
(** Size of the forwarding database. *)

val forwarded : t -> int

val dropped : t -> int

val dropped_broadcast : t -> int
