(** Node permissions, following the XenStore ACL model: a node has an
    owning domain (which may always read and write it), a default
    permission for everyone else, and an explicit per-domain ACL.
    Dom0 bypasses all checks. *)

type role =
  | None_  (** no access *)
  | Read
  | Write
  | Both

type t

val make : owner:int -> ?default:role -> ?acl:(int * role) list -> unit -> t

val owner : t -> int

val owned_default : int -> t
(** Owner-only access, the default for freshly created nodes. *)

val can_read : t -> domid:int -> bool

val can_write : t -> domid:int -> bool

val grant : t -> domid:int -> role -> t
(** Add or replace an ACL entry. *)

val to_string : t -> string
(** Wire encoding, e.g. ["n3,r0,b5"]: first entry is owner+default,
    the rest the ACL. *)

val wire_length : t -> int
(** [String.length (to_string t)], computed without building the
    string: the daemon charges a request by its payload size. *)

val of_string : string -> t option

val equal : t -> t -> bool
