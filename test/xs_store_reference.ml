(* The persistent XenStore tree that [Lightvm_xenstore.Xs_store]'s
   transient tree replaced, kept as the reference model for
   [test_xenstore.ml]'s "transient store = persistent reference"
   property. Below the shim it is the replaced
   [lib/xenstore/xs_store.ml] verbatim: every mutation rebuilds the
   spine of immutable nodes, so snapshots share without epochs. *)

module Xs_path = Lightvm_xenstore.Xs_path
module Xs_perms = Lightvm_xenstore.Xs_perms
module Xs_error = Lightvm_xenstore.Xs_error

(* Children are keyed by segment name, so [bindings] is sorted by name
   — the order [directory] answers in. *)
module SMap = Map.Make (String)

module IMap = Map.Make (Int)

module Node = struct
  type t = {
    value : string;
    perms : Xs_perms.t;
    children : t SMap.t;
  }

  let value t = t.value
  let perms t = t.perms
  let children t = SMap.bindings t.children

  let rec subtree_size t =
    SMap.fold (fun _ child acc -> acc + subtree_size child) t.children 1

  let make ~value ~perms = { value; perms; children = SMap.empty }
end

(* [owned] is a persistent map (not a Hashtbl) so that snapshots are
   pure structural sharing: [snapshot]/[of_snapshot] copy four words
   whatever the number of owners, where a Hashtbl would cost an O(n)
   copy per transaction start and per scratch validation. *)
type t = {
  mutable root : Node.t;
  mutable generation : int;
  mutable count : int;
  mutable owned : int IMap.t;
  mutable memo : (Xs_path.t * Node.t * Node.t) option;
      (** Single-entry lookup memo: [(path, root, node)] from the last
          successful walk. Clients overwhelmingly re-touch one key
          (device state machines poll their own state node, through a
          path value they hold), and the node tree is immutable, so
          the memo is valid exactly while both the path and the root
          are physically unchanged — two pointer compares instead of a
          per-segment walk. Any commit that replaces [root] clears it,
          so it never pins a dead tree. *)
}

type 'a r = ('a, Xs_error.t) result

type snapshot = {
  snap_root : Node.t;
  snap_generation : int;
  snap_count : int;
  snap_owned : int IMap.t;
}

let adjust_owned t domid delta =
  let cur = Option.value ~default:0 (IMap.find_opt domid t.owned) in
  let n = cur + delta in
  (* Drop exhausted owners instead of keeping a [domid -> 0] entry:
     domids are never reused, so on a host churning millions of VM
     lifecycles those dead entries would grow the map (and the GC live
     set, and every snapshot) without bound. [owned_count] reads a
     missing entry and a zero entry identically. *)
  t.owned <-
    (if n = 0 then IMap.remove domid t.owned else IMap.add domid n t.owned)

let owned_count t ~domid =
  Option.value ~default:0 (IMap.find_opt domid t.owned)

let node_count t = t.count
let generation t = t.generation

let dom0_node value =
  Node.make ~value ~perms:(Xs_perms.make ~owner:0 ~default:Xs_perms.Read ())

let create () =
  let leaf = dom0_node "" in
  let domain = leaf in
  let local = { leaf with Node.children = SMap.singleton "domain" domain } in
  let root =
    {
      (dom0_node "") with
      Node.children =
        SMap.of_seq
          (List.to_seq
             [ ("local", local); ("tool", leaf); ("vm", leaf) ]);
    }
  in
  let t =
    { root; generation = 0; count = 5; owned = IMap.empty; memo = None }
  in
  adjust_owned t 0 5;
  t

let rec lookup_node node = function
  | [] -> Some node
  | seg :: rest -> (
      match SMap.find_opt seg node.Node.children with
      | None -> None
      | Some child -> lookup_node child rest)

let lookup t path =
  match t.memo with
  | Some (p, r, node) when p == path && r == t.root -> Some node
  | _ ->
      if Xs_path.is_special path then None
      else (
        match lookup_node t.root (Xs_path.segments path) with
        | Some node as found ->
            t.memo <- Some (path, t.root, node);
            found
        | None -> None)

let exists t path = Option.is_some (lookup t path)

let read t ~caller path =
  match lookup t path with
  | None -> Error Xs_error.ENOENT
  | Some node ->
      if Xs_perms.can_read (Node.perms node) ~domid:caller then
        Ok (Node.value node)
      else Error Xs_error.EACCES

let directory t ~caller path =
  match lookup t path with
  | None -> Error Xs_error.ENOENT
  | Some node ->
      if Xs_perms.can_read (Node.perms node) ~domid:caller then
        Ok (List.map fst (Node.children node))
      else Error Xs_error.EACCES

let get_perms t ~caller path =
  match lookup t path with
  | None -> Error Xs_error.ENOENT
  | Some node ->
      if Xs_perms.can_read (Node.perms node) ~domid:caller then
        Ok (Node.perms node)
      else Error Xs_error.EACCES

(* Functional update along [segs]; [f] transforms the (optional) target
   node into its replacement. Counts created nodes so quotas and node
   totals stay exact: every node one update creates is owned by
   [caller], so the ownership map is touched once per mutation. *)
let update t ~caller path ~(f : Node.t option -> (Node.t, Xs_error.t) result)
    =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else begin
    let created = ref 0 in
    let rec go (node : Node.t) segs : (Node.t, Xs_error.t) result =
      match segs with
      | [] -> assert false
      | [ last ] -> (
          let existing = SMap.find_opt last node.Node.children in
          (match existing with
          | Some _ -> ()
          | None ->
              (* Creating: need write permission on the parent. *)
              if not (Xs_perms.can_write (Node.perms node) ~domid:caller)
              then raise (Xs_error.Error Xs_error.EACCES));
          match f existing with
          | Error e -> Error e
          | Ok replacement ->
              (* [Option.is_none], not polymorphic [= None]: [existing]
                 carries a whole subtree, and structural equality is a C
                 call the compiler can't see through. *)
              if Option.is_none existing then incr created;
              Ok
                {
                  node with
                  Node.children =
                    SMap.add last replacement node.Node.children;
                })
      | seg :: rest -> (
          let child =
            match SMap.find_opt seg node.Node.children with
            | Some c -> c
            | None ->
                (* Implicit intermediate node owned by the caller. *)
                if not (Xs_perms.can_write (Node.perms node) ~domid:caller)
                then raise (Xs_error.Error Xs_error.EACCES);
                incr created;
                Node.make ~value:""
                  ~perms:(Xs_perms.owned_default caller)
          in
          match go child rest with
          | Error e -> Error e
          | Ok child' ->
              Ok
                {
                  node with
                  Node.children = SMap.add seg child' node.Node.children;
                })
    in
    match Xs_path.segments path with
    | [] -> Error Xs_error.EINVAL
    | segs -> (
        match go t.root segs with
        | Error e -> Error e
        | Ok root' ->
            t.root <- root';
            t.memo <- None;
            t.generation <- t.generation + 1;
            if !created > 0 then begin
              t.count <- t.count + !created;
              adjust_owned t caller !created
            end;
            Ok ()
        | exception Xs_error.Error e -> Error e)
  end

let write_generic t ~caller path value =
  update t ~caller path ~f:(fun existing ->
      match existing with
      | Some node ->
          if Xs_perms.can_write (Node.perms node) ~domid:caller then
            Ok { node with Node.value = value }
          else Error Xs_error.EACCES
      | None ->
          Ok (Node.make ~value ~perms:(Xs_perms.owned_default caller)))

(* Overwriting an existing node is the dominant write shape (device
   state machines and per-domain bookkeeping rewrite the same keys),
   and it needs none of [update]'s machinery: nothing is created, so no
   quota/ownership accounting, no per-level [result] boxing and no
   created-node list — just rebuild the spine. Any missing segment
   falls back to the generic path, which keeps the two observably
   identical (same permission checks, same errors). *)
exception Missing

exception Unchanged

let write_slow t ~caller path value =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else
    match Xs_path.segments path with
    | [] -> Error Xs_error.EINVAL
    | segs -> (
        let rec overwrite (node : Node.t) = function
          | [] -> assert false
          | [ last ] -> (
              match SMap.find_opt last node.Node.children with
              | None -> raise_notrace Missing
              | Some leaf ->
                  if Xs_perms.can_write (Node.perms leaf) ~domid:caller then
                    if String.equal (Node.value leaf) value then
                      (* Same-value refresh (clients re-assert keys they
                         already own, as oxenstored also special-cases):
                         the tree after the rebuild would be structurally
                         identical, so skip it. The write still counts —
                         generation bumps, watches fire at the server
                         layer — only the allocation disappears. *)
                      raise_notrace Unchanged
                    else
                      {
                        node with
                        Node.children =
                          SMap.add last
                            { leaf with Node.value = value }
                            node.Node.children;
                      }
                  else raise_notrace (Xs_error.Error Xs_error.EACCES))
          | seg :: rest -> (
              match SMap.find_opt seg node.Node.children with
              | None -> raise_notrace Missing
              | Some child ->
                  {
                    node with
                    Node.children =
                      SMap.add seg (overwrite child rest) node.Node.children;
                  })
        in
        match overwrite t.root segs with
        | root' ->
            t.root <- root';
            t.memo <- None;
            t.generation <- t.generation + 1;
            Ok ()
        | exception Unchanged ->
            t.generation <- t.generation + 1;
            Ok ()
        | exception Missing -> write_generic t ~caller path value
        | exception Xs_error.Error e -> Error e)

let write t ~caller path value =
  match t.memo with
  | Some (p, r, leaf)
    when p == path && r == t.root
         && Xs_perms.can_write (Node.perms leaf) ~domid:caller
         && String.equal (Node.value leaf) value ->
      (* Memoized same-value refresh: the tree would come out
         structurally identical, so only the generation advances. *)
      t.generation <- t.generation + 1;
      Ok ()
  | _ -> write_slow t ~caller path value

let mkdir t ~caller path =
  if exists t path then Ok () (* silent success, like the real daemon *)
  else
    update t ~caller path ~f:(fun existing ->
        match existing with
        | Some node -> Ok node
        | None ->
            Ok (Node.make ~value:"" ~perms:(Xs_perms.owned_default caller)))

let set_perms t ~caller path perms =
  let previous_owner = ref None in
  let result =
    update t ~caller path ~f:(fun existing ->
        match existing with
        | None -> Error Xs_error.ENOENT
        | Some node ->
            if caller = 0 || Xs_perms.owner (Node.perms node) = caller then begin
              previous_owner := Some (Xs_perms.owner (Node.perms node));
              Ok { node with Node.perms = perms }
            end
            else Error Xs_error.EACCES)
  in
  (match (result, !previous_owner) with
  | Ok (), Some old_owner ->
      let new_owner = Xs_perms.owner perms in
      if old_owner <> new_owner then begin
        adjust_owned t old_owner (-1);
        adjust_owned t new_owner 1
      end
  | _ -> ());
  result

let count_owners node =
  let rec go acc (n : Node.t) =
    let owner = Xs_perms.owner (Node.perms n) in
    let acc =
      IMap.add owner
        (1 + Option.value ~default:0 (IMap.find_opt owner acc))
        acc
    in
    SMap.fold (fun _ c acc -> go acc c) n.Node.children acc
  in
  go IMap.empty node

let rm t ~caller path =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else
    match Xs_path.segments path with
    | [] -> Error Xs_error.EINVAL
    | segs -> (
        match lookup t path with
        | None -> Error Xs_error.ENOENT
        | Some target ->
            let removable parent_node =
              Xs_perms.can_write (Node.perms parent_node) ~domid:caller
              || Xs_perms.can_write (Node.perms target) ~domid:caller
            in
            let rec go node = function
              | [] -> assert false
              | [ last ] ->
                  if not (removable node) then
                    raise (Xs_error.Error Xs_error.EACCES);
                  {
                    node with
                    Node.children = SMap.remove last node.Node.children;
                  }
              | seg :: rest ->
                  let child = SMap.find seg node.Node.children in
                  {
                    node with
                    Node.children =
                      SMap.add seg (go child rest) node.Node.children;
                  }
            in
            (match go t.root segs with
            | root' ->
                IMap.iter
                  (fun owner n -> adjust_owned t owner (-n))
                  (count_owners target);
                t.count <- t.count - Node.subtree_size target;
                t.root <- root';
                t.memo <- None;
                t.generation <- t.generation + 1;
                Ok ()
            | exception Xs_error.Error e -> Error e))

let iter t f =
  let rec go path node =
    List.iter
      (fun (name, child) ->
        let child_path = Xs_path.concat path name in
        f ~path:child_path ~value:(Node.value child)
          ~perms:(Node.perms child);
        go child_path child)
      (Node.children node)
  in
  go Xs_path.root t.root

(* Both O(1): the node tree is immutable and [owned] is persistent, so
   a snapshot is four words and restoring one shares all structure.
   Mutations on either side replace fields; they never leak across
   (pinned by the snapshot-independence test in test_xenstore.ml). *)
let snapshot t =
  {
    snap_root = t.root;
    snap_generation = t.generation;
    snap_count = t.count;
    snap_owned = t.owned;
  }

let of_snapshot s =
  {
    root = s.snap_root;
    generation = s.snap_generation;
    count = s.snap_count;
    owned = s.snap_owned;
    memo = None;
  }

let restore t s =
  t.root <- s.snap_root;
  t.generation <- s.snap_generation;
  t.count <- s.snap_count;
  t.owned <- s.snap_owned;
  t.memo <- None
