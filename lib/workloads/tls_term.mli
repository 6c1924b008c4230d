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
