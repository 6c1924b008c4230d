(** Per-domain state kept by the hypervisor. *)

type shutdown_reason = Poweroff | Reboot | Suspend | Crash

type state =
  | Paused  (** created but not scheduled *)
  | Running
  | Shutdown of shutdown_reason
  | Dying

type t

val make : domid:int -> name:string -> max_mem_kb:int -> core:int -> t

val domid : t -> int

val name : t -> string

val set_name : t -> string -> unit

val state : t -> state

val set_state : t -> state -> unit

val max_mem_kb : t -> int

val core : t -> int
(** Physical core this domain's vCPU is pinned to (round-robin
    assignment at creation, as in the paper's experiments). *)

val is_running : t -> bool
