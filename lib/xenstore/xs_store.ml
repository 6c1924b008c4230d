(* Children are keyed by segment name, so [bindings] is sorted by name
   — the order [directory] answers in. *)
module SMap = Map.Make (String)

module IMap = Map.Make (Int)

module Node = struct
  (* [epoch] is the epoch of the store that created or copied the node;
     only a store that holds that epoch changes the node in place. *)
  type t = {
    mutable value : string;
    mutable perms : Xs_perms.t;
    mutable children : t SMap.t;
    epoch : int;
  }

  let value t = t.value
  let perms t = t.perms
  let children t = SMap.bindings t.children

  let rec subtree_size t =
    SMap.fold (fun _ child acc -> acc + subtree_size child) t.children 1
end

(* A transient tree. Snapshots share nodes with the store they were
   taken from and with the stores built from them, so a store changes
   in place only the nodes that carry its own [epoch]: the ones it
   created or copied since it took that epoch, which nothing else can
   reach. A mutation copies each shared node on its path into the
   store's epoch, links the copy into its parent (already the store's
   own) and then changes the target in place. The nodes of the current
   epoch form a subtree that holds the root whenever it is not empty,
   since a node is only ever created or copied under a parent of the
   current epoch; so a target of the current epoch has no shared
   ancestor, and overwriting it sets one field.

   [snapshot], [of_snapshot] and [adopt] move stores to fresh epochs
   drawn from [epochs], a counter that a store, its snapshots and the
   stores made from them share. It lives in the store rather than in a
   global, so a checkpoint image carries it and a thawed copy never
   re-issues an epoch its nodes already carry.

   [owned] is a persistent map (not a Hashtbl) so that a snapshot
   shares it whatever the number of owners, where a Hashtbl would cost
   an O(n) copy per transaction start and per scratch validation.

   [memo_path] and [memo_node] are a single-entry lookup memo: the node
   the last successful walk reached, keyed by the path value's address.
   Clients overwhelmingly re-touch one key (device state machines poll
   their own state node, through a path value they hold). Every
   mutation and every change of root resets the memo to the root path
   and the root node, an entry that is always valid, so the memo needs
   no option box and never pins a dead tree. *)
type t = {
  mutable root : Node.t;
  mutable generation : int;
  mutable count : int;
  mutable owned : int IMap.t;
  mutable epoch : int;
  mutable epochs : int ref;
  mutable memo_path : Xs_path.t;
  mutable memo_node : Node.t;
}

type 'a r = ('a, Xs_error.t) result

type snapshot = {
  snap_root : Node.t;
  snap_generation : int;
  snap_count : int;
  snap_owned : int IMap.t;
  snap_epochs : int ref;
}

let fresh_epoch epochs =
  incr epochs;
  !epochs

let forget t =
  t.memo_path <- Xs_path.root;
  t.memo_node <- t.root

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

let create () =
  let perms = Xs_perms.make ~owner:0 ~default:Xs_perms.Read () in
  let dir ?(children = SMap.empty) () =
    { Node.value = ""; perms; children; epoch = 0 }
  in
  let local = dir ~children:(SMap.singleton "domain" (dir ())) () in
  let root =
    dir
      ~children:
        (SMap.of_seq
           (List.to_seq [ ("local", local); ("tool", dir ()); ("vm", dir ()) ]))
      ()
  in
  let t =
    {
      root;
      generation = 0;
      count = 5;
      owned = IMap.empty;
      epoch = 0;
      epochs = ref 0;
      memo_path = Xs_path.root;
      memo_node = root;
    }
  in
  adjust_owned t 0 5;
  t

(* The node reached by following [segs] from [node] up to its suffix
   [stop]; raises [Not_found] at a missing segment. *)
let rec find_upto (node : Node.t) segs stop =
  if segs == stop then node
  else
    match segs with
    | [] -> node
    | seg :: rest -> find_upto (SMap.find seg node.children) rest stop

let find t path =
  if path == t.memo_path then t.memo_node
  else if Xs_path.is_special path then raise_notrace Not_found
  else begin
    let node = find_upto t.root (Xs_path.segments path) [] in
    t.memo_path <- path;
    t.memo_node <- node;
    node
  end

let lookup t path =
  match find t path with node -> Some node | exception Not_found -> None

let exists t path =
  match find t path with _ -> true | exception Not_found -> false

let readable t ~caller path ~(f : Node.t -> 'a) =
  match find t path with
  | exception Not_found -> Error Xs_error.ENOENT
  | node ->
      if Xs_perms.can_read node.perms ~domid:caller then Ok (f node)
      else Error Xs_error.EACCES

let read t ~caller path = readable t ~caller path ~f:Node.value

let directory t ~caller path =
  readable t ~caller path ~f:(fun node ->
      List.map fst (Node.children node))

let get_perms t ~caller path = readable t ~caller path ~f:Node.perms

(* Where [segs] ends below [node]: the node it names, or the deepest
   existing node on the way and the segments missing below it. *)
type probe = Found of Node.t | Missing of Node.t * string list

let rec probe (node : Node.t) = function
  | [] -> Found node
  | seg :: rest as segs -> (
      match SMap.find seg node.children with
      | child -> probe child rest
      | exception Not_found -> Missing (node, segs))

(* [find_upto] for a mutation: every shared node on the way is copied
   into the store's epoch and the copy linked into its parent, so the
   node returned is the store's own. *)
let rec own_upto t (node : Node.t) segs stop =
  if segs == stop then node
  else
    match segs with
    | [] -> node
    | seg :: rest ->
        let child = SMap.find seg node.children in
        let child =
          if child.epoch = t.epoch then child
          else begin
            let copy = { child with epoch = t.epoch } in
            node.children <- SMap.add seg copy node.children;
            copy
          end
        in
        own_upto t child rest stop

(* [node], found at [segs] up to [stop], made the store's own. *)
let writable t (node : Node.t) segs stop =
  if node.epoch = t.epoch then node
  else begin
    let root =
      if t.root.epoch = t.epoch then t.root
      else begin
        let copy = { t.root with epoch = t.epoch } in
        t.root <- copy;
        copy
      end
    in
    own_upto t root segs stop
  end

let mutated t =
  t.generation <- t.generation + 1;
  forget t

(* The new nodes [segs] names, all owned by [perms]' owner: an empty
   directory per segment and [value] at the last. *)
let rec chain epoch perms value = function
  | [] | [ _ ] -> { Node.value; perms; children = SMap.empty; epoch }
  | _ :: (next :: _ as rest) ->
      {
        Node.value = "";
        perms;
        children = SMap.singleton next (chain epoch perms value rest);
        epoch;
      }

(* Creates [missing] below [parent], the deepest existing node on
   [segs]: the new nodes are linked into the tree once, at the top. Every
   created node is owned by [caller], so the ownership map is touched
   once per mutation. *)
let add t ~caller segs parent missing value =
  match missing with
  | [] -> ()
  | seg :: _ ->
      let parent = writable t parent segs missing in
      let perms = Xs_perms.owned_default caller in
      parent.children <-
        SMap.add seg (chain t.epoch perms value missing) parent.children;
      let created = List.length missing in
      t.count <- t.count + created;
      adjust_owned t caller created;
      mutated t

(* Every mutation makes all of its checks before it changes anything,
   so a failed one leaves the tree as it was. Creating needs write
   permission on the deepest existing node; the implicit directories
   below it are the caller's own. *)
let write t ~caller path value =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else
    match Xs_path.segments path with
    | [] -> Error Xs_error.EINVAL
    | segs -> (
        match probe t.root segs with
        | Found node ->
            if not (Xs_perms.can_write node.perms ~domid:caller) then
              Error Xs_error.EACCES
            else if String.equal node.value value then begin
              (* Same-value refresh (clients re-assert keys they already
                 own): the tree would not change, so nothing is copied.
                 The write still counts — generation bumps, watches
                 fire at the server layer. *)
              t.generation <- t.generation + 1;
              Ok ()
            end
            else begin
              (writable t node segs []).value <- value;
              mutated t;
              Ok ()
            end
        | Missing (parent, missing) ->
            if not (Xs_perms.can_write parent.perms ~domid:caller) then
              Error Xs_error.EACCES
            else begin
              add t ~caller segs parent missing value;
              Ok ()
            end)

let mkdir t ~caller path =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else
    let segs = Xs_path.segments path in
    match probe t.root segs with
    | Found _ -> Ok () (* silent success, like the real daemon *)
    | Missing (parent, missing) ->
        if not (Xs_perms.can_write parent.perms ~domid:caller) then
          Error Xs_error.EACCES
        else begin
          add t ~caller segs parent missing "";
          Ok ()
        end

let set_perms t ~caller path perms =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else
    match Xs_path.segments path with
    | [] -> Error Xs_error.EINVAL
    | segs -> (
        match probe t.root segs with
        | Missing (parent, _) ->
            if Xs_perms.can_write parent.perms ~domid:caller then
              Error Xs_error.ENOENT
            else Error Xs_error.EACCES
        | Found node ->
            let old_owner = Xs_perms.owner node.perms in
            if caller = 0 || old_owner = caller then begin
              (writable t node segs []).perms <- perms;
              let new_owner = Xs_perms.owner perms in
              if old_owner <> new_owner then begin
                adjust_owned t old_owner (-1);
                adjust_owned t new_owner 1
              end;
              mutated t;
              Ok ()
            end
            else Error Xs_error.EACCES)

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

let rec last_cell = function
  | ([] | [ _ ]) as cell -> cell
  | _ :: rest -> last_cell rest

let rm t ~caller path =
  if Xs_path.is_special path then Error Xs_error.EINVAL
  else
    match Xs_path.segments path with
    | [] -> Error Xs_error.EINVAL
    | segs -> (
        match find t path with
        | exception Not_found -> Error Xs_error.ENOENT
        | target ->
            let last = last_cell segs in
            let parent = find_upto t.root segs last in
            if
              not
                (Xs_perms.can_write parent.perms ~domid:caller
                || Xs_perms.can_write target.perms ~domid:caller)
            then Error Xs_error.EACCES
            else begin
              let parent = writable t parent segs last in
              parent.children <- SMap.remove (List.hd last) parent.children;
              IMap.iter
                (fun owner n -> adjust_owned t owner (-n))
                (count_owners target);
              t.count <- t.count - Node.subtree_size target;
              mutated t;
              Ok ()
            end)

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

(* All O(1). A snapshot shares the whole tree, so the store it was
   taken from moves to a fresh epoch and copies what it changes from
   then on; a store seeded from a snapshot starts in a fresh epoch for
   the same reason. Mutations on either side never leak across (pinned
   by the snapshot-independence tests in test_xenstore.ml). *)
let snapshot t =
  let s =
    {
      snap_root = t.root;
      snap_generation = t.generation;
      snap_count = t.count;
      snap_owned = t.owned;
      snap_epochs = t.epochs;
    }
  in
  t.epoch <- fresh_epoch t.epochs;
  s

let of_snapshot s =
  {
    root = s.snap_root;
    generation = s.snap_generation;
    count = s.snap_count;
    owned = s.snap_owned;
    epoch = fresh_epoch s.snap_epochs;
    epochs = s.snap_epochs;
    memo_path = Xs_path.root;
    memo_node = s.snap_root;
  }

(* [t] takes over [from]'s tree together with its epoch, so the nodes
   [from] copied or created stay writable in place. [from] is spent;
   it moves to a fresh epoch so that no two stores hold one epoch: a
   stray write through it copies instead of changing [t]'s nodes. *)
let adopt t ~from =
  t.root <- from.root;
  t.generation <- from.generation;
  t.count <- from.count;
  t.owned <- from.owned;
  t.epochs <- from.epochs;
  t.epoch <- from.epoch;
  forget t;
  from.epoch <- fresh_epoch from.epochs
