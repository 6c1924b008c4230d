(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic element of the simulation draws from an explicit
    [Rng.t] so that runs are reproducible bit-for-bit from a seed. *)

type t

val create : int64 -> t

val split : t -> t
(** An independent stream derived from [t]; also advances [t]. *)

val int64 : t -> int64

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val exponential : t -> mean:float -> float

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
