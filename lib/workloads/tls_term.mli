(** High-density TLS termination (Section 7.3, Fig 16c).

    N terminating instances — bare-metal processes, Tinyx VMs or axtls
    unikernels — serve closed-loop HTTPS clients fetching an empty file
    with RSA-1024. Throughput rises while instances spread across idle
    cores and saturates at the host's aggregate RSA capacity; the
    unikernel plateaus at roughly a fifth of Tinyx because of lwip. *)

type backend =
  | Bare_metal  (** Linux process, Linux stack *)
  | Tinyx_vm  (** Tinyx guest, Linux stack, small virt overhead *)
  | Unikernel  (** axtls over MiniOS + lwip *)

val backend_name : backend -> string

val throughput :
  ?platform:Lightvm_hv.Params.platform ->
  backend ->
  instances:int ->
  float
(** Requests per second served by [instances] of the backend under
    closed-loop load. *)

val sweep :
  ?platform:Lightvm_hv.Params.platform ->
  backend ->
  instances:int list ->
  (int * float) list

type memory_point = {
  mem_backend : backend;
  instance_mem_mb : float;
  boot_ms : float;
}

val footprint : backend -> memory_point
(** Paper numbers: unikernel 16 MB / ~6 ms boot; Tinyx 40 MB /
    ~190 ms. *)

val serve_one :
  Lightvm_sim.Cpu.t -> core:int -> backend -> unit
(** Serve one full handshake+request on a core of the simulated CPU —
    runs the real TLS state machine and charges its cost (used by the
    example program and tests). *)
