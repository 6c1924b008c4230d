(** Just-in-time service instantiation (Section 7.2, Fig 16b).

    A dispatcher in Dom0 watches the software bridge; the first packet
    from a new client triggers the boot of that client's service VM,
    which then answers the client's ping. Clients ARP first — under
    fast arrivals the bridge sheds ARP broadcasts, those clients time
    out and retry, and the measured RTT distribution grows the long
    tail the paper shows. Idle VMs are torn down after two seconds. *)

type config = {
  arrival_interval : float;  (** open-loop client inter-arrival *)
  clients : int;
  mode : Lightvm_toolstack.Mode.t;
  arp_timeout : float;  (** client retry timer (default 1 s) *)
  max_retries : int;
  bridge_pps : float;
  idle_teardown : float;  (** destroy VMs idle this long (paper: 2 s) *)
}

val default_config : config

type result = {
  rtts : float list;  (** one measured RTT per client, arrival order *)
  timeouts : int;  (** clients that needed at least one retry *)
  arp_drops : int;
  vms_booted : int;
  torn_down : int;  (** VMs destroyed by the idle reaper *)
}

val run : config -> result
(** Runs the whole experiment in one simulation. *)
