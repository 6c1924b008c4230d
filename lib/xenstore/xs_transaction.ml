type journal_entry =
  | J_read of int * Xs_path.t * (string, Xs_error.t) result
  | J_directory of int * Xs_path.t * (string list, Xs_error.t) result
  | J_write of int * Xs_path.t * string
  | J_mkdir of int * Xs_path.t
  | J_rm of int * Xs_path.t
  | J_set_perms of int * Xs_path.t * Xs_perms.t

type op_result =
  | Value of (string, Xs_error.t) result
  | Listing of (string list, Xs_error.t) result
  | Unit of (unit, Xs_error.t) result

type t = {
  base_generation : int;
  view : Xs_store.t;
  mutable journal : journal_entry list; (* reversed *)
  mutable aborted : bool;
}

let start store =
  {
    base_generation = Xs_store.generation store;
    view = Xs_store.of_snapshot (Xs_store.snapshot store);
    journal = [];
    aborted = false;
  }

let view t = t.view

let record t e = t.journal <- e :: t.journal

let read t ~caller path =
  let r = Xs_store.read t.view ~caller path in
  record t (J_read (caller, path, r));
  r

let directory t ~caller path =
  let r = Xs_store.directory t.view ~caller path in
  record t (J_directory (caller, path, r));
  r

let write t ~caller path value =
  let r = Xs_store.write t.view ~caller path value in
  if r = Ok () then record t (J_write (caller, path, value));
  r

let mkdir t ~caller path =
  let r = Xs_store.mkdir t.view ~caller path in
  if r = Ok () then record t (J_mkdir (caller, path));
  r

let rm t ~caller path =
  let r = Xs_store.rm t.view ~caller path in
  if r = Ok () then record t (J_rm (caller, path));
  r

let set_perms t ~caller path perms =
  let r = Xs_store.set_perms t.view ~caller path perms in
  if r = Ok () then record t (J_set_perms (caller, path, perms));
  r

let op_count t = List.length t.journal

let entry_write_path = function
  | J_write (_, p, _) | J_mkdir (_, p) | J_rm (_, p)
  | J_set_perms (_, p, _) ->
      Some p
  | J_read _ | J_directory _ -> None

let writes t =
  List.filter_map entry_write_path (List.rev t.journal)

exception Conflict

let replay_into store entries =
  let apply = function
    | J_read (caller, path, expected) ->
        if Xs_store.read store ~caller path <> expected then raise Conflict
    | J_directory (caller, path, expected) ->
        if Xs_store.directory store ~caller path <> expected then
          raise Conflict
    | J_write (caller, path, value) ->
        if Xs_store.write store ~caller path value <> Ok () then
          raise Conflict
    | J_mkdir (caller, path) ->
        if Xs_store.mkdir store ~caller path <> Ok () then raise Conflict
    | J_rm (caller, path) ->
        if Xs_store.rm store ~caller path <> Ok () then raise Conflict
    | J_set_perms (caller, path, perms) ->
        if Xs_store.set_perms store ~caller path perms <> Ok () then
          raise Conflict
  in
  List.iter apply entries

(* A successful commit leaves the live store holding exactly the tree the
   journal produces on it. When nothing else touched the store since
   [start], that tree is the view itself, so the view is adopted as is.
   Otherwise the journal is validated and applied once, on a scratch
   copy of the live store, and the copy is adopted; a conflict leaves
   the live store untouched. Both adoptions are O(1), and the store
   takes the adopted tree's epoch with it, so the nodes the view or the
   copy wrote stay writable in place. *)
let commit t ~into:store =
  if t.aborted then Error Xs_error.EINVAL
  else if Xs_store.generation store = t.base_generation then begin
    Xs_store.adopt store ~from:t.view;
    Ok (writes t)
  end
  else begin
    let scratch = Xs_store.of_snapshot (Xs_store.snapshot store) in
    match replay_into scratch (List.rev t.journal) with
    | () ->
        Xs_store.adopt store ~from:scratch;
        Ok (writes t)
    | exception Conflict -> Error Xs_error.EAGAIN
  end

let abort t = t.aborted <- true
