(** Counting semaphore with FIFO wakeup, for modelling exclusive or
    bounded resources (locks, ramdisk bandwidth slots, daemon worker
    pools). *)

type t

val create : int -> t
(** [create capacity] with [capacity >= 1]. *)

val capacity : t -> int

val available : t -> int

val waiting : t -> int

val acquire : t -> unit
(** Blocks the calling process until a unit is available. *)

val try_acquire : t -> bool

val release : t -> unit
