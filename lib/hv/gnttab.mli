(** Grant tables: the page-sharing mechanism behind split drivers.

    A domain grants a peer access to one of its frames and hands over
    the grant reference (via XenStore or a noxs device page); the peer
    maps it. References cannot be revoked while mapped. *)

type t

type gref = int

type error = Invalid_ref | Wrong_domain | Still_mapped | Not_mapped

val create : unit -> t

val grant_access : t -> owner:int -> grantee:int -> frame:int -> gref
(** Returns the grant reference (scoped to [owner]'s table). *)

val map : t -> grantee:int -> owner:int -> gref -> (int, error) result
(** Map the granted frame; returns the frame number. *)

val unmap : t -> grantee:int -> owner:int -> gref -> (unit, error) result

val end_access : t -> owner:int -> gref -> (unit, error) result
(** Fails with [Still_mapped] while the grantee holds a mapping. *)

val release_domain : t -> domid:int -> int
(** Domain-death cleanup: drop every entry [domid] owns (the table
    pages are freed with the domain, mapped or not) and release the
    mappings it held on other domains' entries. Returns how many owned
    entries were dropped. *)

val mapped_count : t -> owner:int -> gref -> int

val count : t -> int
(** Outstanding grant entries across all owners. For leak accounting —
    see [Lightvm_cluster.Vmm.resources]. *)
