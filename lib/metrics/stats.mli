(** Streaming summary statistics (Welford) and order statistics. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val variance : t -> float
(** Sample variance; 0. for fewer than two observations. *)

val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val sum : t -> float

val percentile : float list -> float -> float
(** [percentile samples p] with [p] in [0,100], linear interpolation
    between closest ranks. Raises [Invalid_argument] on an empty list. *)

val median : float list -> float
