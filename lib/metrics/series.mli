(** Named (x, y) series, the unit in which experiments report results
    and benches print figures. *)

type t

val create : ?unit_label:string -> name:string -> unit -> t

val name : t -> string

val unit_label : t -> string

val add : t -> x:float -> y:float -> unit

val points : t -> (float * float) list
(** In insertion order. *)

val length : t -> int

val last_y : t -> float option

val max_y : t -> float

val min_y : t -> float

val y_at : t -> x:float -> float option
(** Exact-x lookup (first match). *)
