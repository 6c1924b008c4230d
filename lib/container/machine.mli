(** A bare-metal Linux host (no hypervisor) for the container and
    process baselines: the same physical CPU/memory model as the Xen
    hosts, so comparisons are apples-to-apples. *)

type t

val create : ?platform:Lightvm_hv.Params.platform -> unit -> t
(** Reserves the kernel's own memory slice. *)

val cpu : t -> Lightvm_sim.Cpu.t

val mem : t -> Lightvm_hv.Frames.t

val consume_any : t -> float -> unit
(** Run work on the least-loaded core. *)
