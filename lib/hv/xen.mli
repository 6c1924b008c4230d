(** The hypervisor: domains, memory, CPUs, event channels, grant tables
    and noxs device pages behind a hypercall-shaped interface.

    Every entry point charges simulated time (privilege switch plus the
    operation's work) and bumps the hypercall counter, so toolstacks can
    attribute creation time to the "hypervisor" category exactly the way
    the paper's Figure 5 instrumentation does. *)

type t

type error =
  | ENOMEM
  | ENOENT  (** no such domain *)
  | EINVAL

val boot : ?platform:Params.platform -> ?costs:Params.costs -> unit -> t
(** Boot the host (must run inside a simulation). Creates Dom0 pinned to
    the platform's reserved cores and accounts its 4,096 MB. Default
    platform: the paper's 4-core Xeon. *)

val platform : t -> Params.platform

val costs : t -> Params.costs

val cpu : t -> Lightvm_sim.Cpu.t

val evtchn : t -> Evtchn.t

val gnttab : t -> Gnttab.t

val devpage : t -> Devpage.t

val hypercalls : t -> int
(** Total hypercalls performed so far. *)

val hypercall : ?op:string -> t -> cost:float -> unit
(** Charge one generic hypercall of the given extra cost. [op] names
    the operation in the trace span (default ["hypercall"]). *)

(** {1 Domain control} *)

val create_domain :
  t -> name:string -> vcpus:int -> mem_mb:float -> (Domain.t, error) result
(** DOMCTL_createdomain: allocates the domid and hypervisor-side
    structures (charging their memory overhead), assigns the vCPU to a
    guest core round-robin. Guest RAM itself is not yet populated. *)

val populate_memory : t -> domid:int -> (unit, error) result
(** Populate the domain's RAM ([mem_mb] from creation); fails with
    ENOMEM when the host is out of frames. *)

val load_image : t -> domid:int -> size_mb:float -> (unit, error) result
(** Copy a kernel image into guest memory: cost linear in image size
    (the Figure 2 effect). *)

val unpause : t -> domid:int -> (unit, error) result

val pause : t -> domid:int -> (unit, error) result

val shutdown :
  t -> domid:int -> reason:Domain.shutdown_reason -> (unit, error) result

val destroy : t -> domid:int -> (unit, error) result
(** Tears down event channels, grants, the device page, frees all
    memory, and retires the domid. *)

val domain : t -> domid:int -> Domain.t option

val find_domain : t -> domid:int -> Domain.t
(** {!domain} without the option.
    @raise Not_found when the domain does not exist. *)

val domains : t -> Domain.t list
(** All live domains (including Dom0), by ascending domid. *)

val guest_count : t -> int
(** Live domains excluding Dom0. *)

(** {1 CPU} *)

val consume_guest : t -> domid:int -> float -> unit
(** Run [work] seconds of reference CPU on the domain's core (shares
    the core with whatever else runs there). *)

val consume_dom0 : t -> float -> unit
(** Run work on the least-loaded Dom0 core. *)

val guest_core : t -> int -> int
(** [guest_core t i] is the core of the [i]-th guest domain created:
    Dom0 owns the platform's first [dom0_cores] cores and guests take
    the rest round robin (core 0 when none is left). *)

(** {1 Memory accounting} *)

val free_mem_kb : t -> int

val used_mem_kb : t -> int

val domain_mem_kb : t -> domid:int -> int
(** Frames held on behalf of the domain (RAM + hypervisor overhead). *)

val guest_mem_kb : t -> int
(** Frames held by all guest domains (the sum of {!domain_mem_kb} over
    every live domain but Dom0), read off the frame accounting in O(1). *)
