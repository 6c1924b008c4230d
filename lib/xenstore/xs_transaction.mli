(** XenStore transactions.

    A transaction runs against a private store view snapshotted at
    start (O(1): the view shares the store's tree until either writes).
    Every operation is journaled; commit validates the journal against
    the live store — every read must yield the result it yielded inside
    the transaction — and then applies the writes atomically. A
    validation failure is the paper's "failed transactions that need to
    be retried": the caller gets [EAGAIN]. *)

type t

type op_result =
  | Value of (string, Xs_error.t) result
  | Listing of (string list, Xs_error.t) result
  | Unit of (unit, Xs_error.t) result

val start : Xs_store.t -> t

val view : t -> Xs_store.t
(** The private view; callers run ordinary {!Xs_store} operations on it
    through the journaling wrappers below. Do not use it once a commit
    has succeeded: the store adopts its tree ({!Xs_store.adopt}). *)

val read : t -> caller:int -> Xs_path.t -> (string, Xs_error.t) result

val directory :
  t -> caller:int -> Xs_path.t -> (string list, Xs_error.t) result

val write : t -> caller:int -> Xs_path.t -> string -> (unit, Xs_error.t) result

val mkdir : t -> caller:int -> Xs_path.t -> (unit, Xs_error.t) result

val rm : t -> caller:int -> Xs_path.t -> (unit, Xs_error.t) result

val set_perms :
  t -> caller:int -> Xs_path.t -> Xs_perms.t -> (unit, Xs_error.t) result

val op_count : t -> int

val writes : t -> Xs_path.t list
(** Paths modified inside the transaction, in application order (used
    for firing watches after a successful commit). *)

val commit :
  t -> into:Xs_store.t -> (Xs_path.t list, Xs_error.t) result
(** Validate + apply. [Ok modified_paths] on success; [Error EAGAIN] on
    conflict, leaving the live store untouched. When the live store has
    not changed since [start] it adopts the transaction's view outright;
    otherwise the journal is replayed once, onto a copy of the live
    store, which the store then adopts. Either way the store takes the
    adopted tree's epoch, so the nodes that tree copied stay writable in
    place. *)

val abort : t -> unit
