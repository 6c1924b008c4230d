(** Convenience client over {!Xs_server} — the moral equivalent of
    libxs. Raises {!Xs_error.Error} instead of returning results, and
    adds the small helpers toolstacks lean on.

    Paths are typed ({!Xs_path.t}): callers hold their directory paths
    and extend them with {!Xs_path.concat}, so no request re-parses a
    formatted string. The daemon still sees, and charges for, exactly
    the path string {!Xs_path.to_string} gives.

    Every operation below that talks to the daemon can raise
    {!Xs_error.Error} with the code the daemon answered ([EACCES] on a
    permission failure, [EQUOTA] when a node-creating request is over
    quota — natural or injected, see [lib/sim/fault.ml] — and so on);
    the codes worth special handling are called out per function. *)

type t

val connect : Xs_server.t -> domid:int -> t
(** A connection speaking as [domid] (0 for the toolstack and Dom0
    daemons, the guest's own domid for frontends). Permissions and
    quotas are enforced against this identity. *)

val read : t -> ?tx:int -> Xs_path.t -> string
(** @raise Xs_error.Error [ENOENT] when the node does not exist,
    [EACCES] when it is not readable by this connection's domid. *)

val read_opt : t -> ?tx:int -> Xs_path.t -> string option
(** [read] with [ENOENT] mapped to [None]; other errors still raise
    {!Xs_error.Error}. *)

val write : t -> ?tx:int -> Xs_path.t -> string -> unit
(** Creates missing intermediate nodes implicitly, owned by the
    caller, as the real daemon does.
    @raise Xs_error.Error [EACCES] on a write-protected existing node,
    [EQUOTA] when creating the node would exceed the caller's quota,
    [EEXIST] when a toolstack name-registration write collides with a
    running guest's name. *)

val mkdir : t -> ?tx:int -> Xs_path.t -> unit
(** Silent success when the node already exists, like [XS_MKDIR].
    @raise Xs_error.Error [EACCES] or [EQUOTA]. *)

val rm : t -> ?tx:int -> Xs_path.t -> unit
(** Removes the node and its whole subtree.
    @raise Xs_error.Error [ENOENT] when the node does not exist,
    [EACCES] when neither the parent nor the target is writable by the
    caller, [EINVAL] on special paths. *)

val directory : t -> ?tx:int -> Xs_path.t -> string list
(** Child names of a node.
    @raise Xs_error.Error [ENOENT] or [EACCES]. *)

val set_perms : t -> ?tx:int -> Xs_path.t -> Xs_perms.t -> unit
(** @raise Xs_error.Error [ENOENT], or [EACCES] when the caller is
    neither Dom0 nor the node's owner. *)

val watch :
  t -> path:Xs_path.t -> token:string ->
  deliver:(Xs_watch.event -> unit) -> unit
(** Register a watch. [deliver] runs in a fresh simulation process per
    event, starting with the immediate synthetic firing the protocol
    mandates on registration. Never raises. *)

val unwatch : t -> path:Xs_path.t -> token:string -> unit
(** @raise Xs_error.Error [ENOENT] when no such [(path, token)] watch
    is registered by this caller. *)

val with_transaction : t -> (int -> unit) -> unit
(** Run the body in a transaction and commit. A commit conflict
    ([EAGAIN], natural or injected) is retried with exponential
    backoff up to the daemon's retry bound, re-running the body
    against a fresh snapshot each time (see DESIGN.md "Failure
    model").
    @raise Xs_error.Error [EAGAIN] when the retry bound is exhausted,
    [EBUSY] when the daemon has too many open transactions, or
    whatever error the body itself raised. *)

val get_domain_path : t -> int -> string
(** The daemon's [/local/domain/<domid>] answer; never raises. *)

val release : t -> int -> unit
(** Forget a domain: drops its watch registrations, aborts its open
    transactions and fires [@releaseDomain]. Never raises. *)

val write_many : t -> ?tx:int -> (Xs_path.t * string) list -> unit
(** One {!write} per pair, in order; raises like {!write} and stops at
    the first failure. *)

val scan_names : t -> string list
(** Every running guest's name ([libxl_name_to_domid]'s scan):
    equivalent to a {!directory} of [/local/domain] plus a {!read_opt}
    of each child's [name] node — same simulated charges, same
    errors — served from the daemon's name index (see
    {!Xs_server.scan_names}). *)
