(** The XenStore database: a tree of nodes, each carrying a value,
    permissions and named children.

    The tree is transient. A snapshot shares every node with the store
    it was taken from, which makes transaction snapshots O(1) (the trick
    the real oxenstored plays with an immutable tree) and lets
    transactions run against private views. Each node records the epoch
    of the store that created or copied it, and a store changes in
    place only the nodes of its own epoch: those nothing else can reach.
    A mutation copies just the shared nodes on its path, so a store
    that no snapshot shares rewrites a value in place, and after a
    snapshot each path is copied once. The per-domain owned counts are
    transient on the same epochs: a trie over the domid's digits whose
    leaves hold 16 counts each, changed in place where the store made
    them and copied once per path after a snapshot.

    This module is pure bookkeeping — simulation-time costs are charged
    by {!Xs_server}, which also enforces quotas and fires watches. *)

module Node : sig
  type t
  (** A node is not a value: one that [lookup] returned reflects the
      store's later in-place writes, until the store copies it. Read
      what you need from it right away. *)

  val value : t -> string

  val perms : t -> Xs_perms.t

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
(** Number of nodes whose permission owner is [domid]; 0 for a domain
    that owns none, which the store keeps no entry for. *)

val exists : t -> Xs_path.t -> bool

val lookup : t -> Xs_path.t -> Node.t option
(** The node at the path, or [None]. See {!Node} on how long it stays
    current. *)

val read : t -> caller:int -> Xs_path.t -> string r
(** [Error ENOENT] when absent, [Error EACCES] when not readable by
    [caller]. No operation in this module raises; failures are
    returned as {!Xs_error.t} codes. *)

val write : t -> caller:int -> Xs_path.t -> string -> unit r
(** Creates the node (and any missing ancestors, owned by [caller]) if
    needed; requires write permission on the node or, when creating, on
    the nearest existing ancestor. An overwrite with the value the node
    already holds changes no node, but the generation still advances,
    so transactions and watches observe the write. *)

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
(** O(1): the snapshot shares the whole tree and the owned counts, and
    the store moves to a fresh epoch, so its later writes copy the
    nodes and count leaves they change instead of changing the
    snapshot's. *)

val of_snapshot : snapshot -> t
(** An independent store seeded from the snapshot, in a fresh epoch;
    mutations on either side do not affect the other. Also O(1). *)

val adopt : t -> from:t -> unit
(** [adopt t ~from] makes [t] hold [from]'s tree, generation, node
    count and ownership counts, in O(1), and hands it [from]'s epoch
    too: the nodes [from] created or copied stay writable in place, in
    [t]. [from] must not be used afterwards: [t]'s later writes change
    nodes [from] still reaches, so what it would read is unspecified.
    {!Xs_transaction.commit} adopts the transaction's view, or the copy
    it validated the journal on. *)
