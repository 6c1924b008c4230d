(** Aligned plain-text tables for bench output. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Must match the column count. *)

val rows : t -> string list list

val pp : Format.formatter -> t -> unit

val to_string : t -> string
