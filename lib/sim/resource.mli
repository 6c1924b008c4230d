(** Counting semaphore with FIFO wakeup, for modelling exclusive or
    bounded resources (locks, ramdisk bandwidth slots, daemon worker
    pools). *)

type t

val create : int -> t
(** [create capacity] with [capacity >= 1]. *)

val available : t -> int

val acquire : t -> unit
(** Blocks the calling process until a unit is available. *)

val release : t -> unit
