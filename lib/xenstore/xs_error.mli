(** XenStore error codes, matching the strings the real daemon puts in
    XS_ERROR replies. *)

type t =
  | ENOENT  (** no such node *)
  | EACCES  (** permission denied *)
  | EEXIST  (** node already exists (mkdir) *)
  | EINVAL  (** malformed request *)
  | EAGAIN  (** transaction conflict; caller should retry *)
  | EQUOTA  (** per-domain entry quota exhausted *)
  | ENOSPC  (** store full *)
  | EBUSY   (** too many in-flight transactions *)
  | EISDIR  (** operation needs a leaf *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

exception Error of t
(** Used by the client convenience wrappers; the store itself returns
    [result]s. *)
