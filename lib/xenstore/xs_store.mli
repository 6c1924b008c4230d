(** The XenStore database: a tree of nodes, each carrying a value,
    permissions and named children.

    Nodes are immutable; a store is a mutable handle onto the current
    root plus bookkeeping. Immutability makes transaction snapshots O(1)
    (exactly the trick the real oxenstored plays) and lets transactions
    run against private views.

    This module is pure bookkeeping — simulation-time costs are charged
    by {!Xs_server}, which also enforces quotas and fires watches. *)

module Node : sig
  type t

  val value : t -> string

  val perms : t -> Xs_perms.t

  val children : t -> (string * t) list
  (** Sorted by name. *)

  val subtree_size : t -> int
  (** Number of nodes including [t]. *)
end

type t

type 'a r = ('a, Xs_error.t) result

val create : unit -> t
(** A fresh store containing the conventional skeleton: [/], [/local],
    [/local/domain], [/tool] and [/vm], all owned by Dom0. *)

val generation : t -> int
(** Bumped on every successful mutation. *)

val node_count : t -> int

val owned_count : t -> domid:int -> int
(** Number of nodes whose permission owner is [domid]. *)

val exists : t -> Xs_path.t -> bool

val lookup : t -> Xs_path.t -> Node.t option

val read : t -> caller:int -> Xs_path.t -> string r
(** [Error ENOENT] when absent, [Error EACCES] when not readable by
    [caller]. No operation in this module raises; failures are
    returned as {!Xs_error.t} codes. *)

val write : t -> caller:int -> Xs_path.t -> string -> unit r
(** Creates the node (and any missing ancestors, owned by [caller]) if
    needed; requires write permission on the node or, when creating, on
    the nearest existing ancestor. Overwrites of an existing node take
    a specialized spine-rebuild path that skips the quota/ownership
    bookkeeping (nothing is created), and an overwrite with the value
    the node already holds skips the rebuild entirely (the generation
    still advances, so transactions and watches observe the write);
    creating writes go through {!write_generic}. *)

val write_generic : t -> caller:int -> Xs_path.t -> string -> unit r
(** The general functional-update implementation of {!write}: handles
    node creation and all accounting. [write] delegates to it whenever
    any path segment is missing; it is exported as the reference side
    of the bench pair pinning the overwrite fast path. *)

val mkdir : t -> caller:int -> Xs_path.t -> unit r
(** Like [write] with an empty value, but succeeds silently when the
    node already exists (matching the real daemon). *)

val rm : t -> caller:int -> Xs_path.t -> unit r
(** Removes the whole subtree. ENOENT when absent; EINVAL on the root. *)

val directory : t -> caller:int -> Xs_path.t -> string list r
(** Child names, sorted; [Error ENOENT] or [Error EACCES]. *)

val get_perms : t -> caller:int -> Xs_path.t -> Xs_perms.t r
(** [Error ENOENT] when absent (perms are readable by anyone). *)

val set_perms : t -> caller:int -> Xs_path.t -> Xs_perms.t -> unit r
(** Only the owner (or Dom0) may change permissions. *)

val iter :
  t ->
  (path:Xs_path.t -> value:string -> perms:Xs_perms.t -> unit) ->
  unit
(** Visit every node (except the root) in depth-first path order —
    what [xenstore-ls] prints. *)

type snapshot

val snapshot : t -> snapshot
(** O(1): the node tree is immutable and the ownership counts are a
    persistent map, so a snapshot is pure structural sharing — no
    copies, whatever the store size. *)

val of_snapshot : snapshot -> t
(** An independent store seeded from the snapshot; mutations do not
    affect the original. Also O(1) — restoring shares all structure. *)

val restore : t -> snapshot -> unit
(** [restore t s] makes [t] hold the snapshot's tree, generation, node
    count and ownership counts, in O(1). Used to commit a transaction by
    adopting the store it built. *)
