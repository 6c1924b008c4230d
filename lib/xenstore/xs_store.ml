(* Children are keyed by segment name, so [bindings] is sorted by name
   — the order [directory] answers in. *)
module SMap = Map.Make (String)

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

(* Owned counts: a 16-way trie over the domid's base-16 digits, most
   significant first, [owned_levels] levels deep. A leaf holds the
   counts of 16 consecutive domids, unboxed. Like a tree node, each
   trie node carries the epoch of the store that made it and is changed
   in place only by that store; any other store copies the node's path
   first, once per epoch. A leaf whose counts are all zero is unlinked,
   and so is a branch left with no child, so domids that own nothing
   (domids are never reused) keep nothing. The trie grows a level on
   top when a larger domid first owns a node; read unsigned, any int
   fits in 16 levels. *)
type owned =
  | Empty
  | Leaf of { epoch : int; counts : int array }
  | Branch of { epoch : int; kids : owned array }

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

   [owned] is transient on the same epochs, so a snapshot shares it
   whatever the number of owners, a store that no snapshot shares
   changes a count in place, and the first change of a count after a
   snapshot copies that count's path through the trie. No domain keeps
   a heap block of its own, so a checkpoint image of a dense host holds
   one leaf per 16 domids rather than a block per domain: the image's
   object count sizes the marshaller's sharing table (DESIGN.md §6).

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
  mutable owned : owned;
  mutable owned_levels : int;
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
  snap_owned : owned;
  snap_owned_levels : int;
  snap_epochs : int ref;
}

let fresh_epoch epochs =
  incr epochs;
  !epochs

let forget t =
  t.memo_path <- Xs_path.root;
  t.memo_node <- t.root

(* Whether a trie [levels] deep covers [domid]; 16 levels cover every
   int, and a shift by 64 bits would be unspecified. *)
let fits domid levels = levels >= 16 || domid lsr (4 * levels) = 0

(* The trie index of [domid] at [level]; the leaves are level 0. *)
let digit domid level = (domid lsr (4 * level)) land 15

let rec count_of node domid level =
  match node with
  | Empty -> 0
  | Leaf l -> l.counts.(digit domid 0)
  | Branch b -> count_of b.kids.(digit domid level) domid (level - 1)

let owned_count t ~domid =
  if fits domid t.owned_levels then
    count_of t.owned domid (t.owned_levels - 1)
  else 0

(* [node], at [level], made the store's own: itself if the store made
   it, else a copy, or a new empty node in place of [Empty]. *)
let own_owned t node level =
  match node with
  | Leaf l when l.epoch = t.epoch -> node
  | Branch b when b.epoch = t.epoch -> node
  | Leaf l -> Leaf { epoch = t.epoch; counts = Array.copy l.counts }
  | Branch b -> Branch { epoch = t.epoch; kids = Array.copy b.kids }
  | Empty ->
      if level = 0 then Leaf { epoch = t.epoch; counts = Array.make 16 0 }
      else Branch { epoch = t.epoch; kids = Array.make 16 Empty }

(* [node], at [level], with [delta] added to [domid]'s count: [Empty]
   once it holds no count. *)
let rec adjust t node domid level delta =
  match own_owned t node level with
  | Empty -> assert false (* [own_owned] builds a node in its place *)
  | Leaf l as leaf ->
      let i = digit domid 0 in
      l.counts.(i) <- l.counts.(i) + delta;
      if l.counts.(i) = 0 && Array.for_all (fun n -> n = 0) l.counts then
        Empty
      else leaf
  | Branch b as branch ->
      let i = digit domid level in
      let kid = adjust t b.kids.(i) domid (level - 1) delta in
      b.kids.(i) <- kid;
      if kid == Empty && Array.for_all (fun k -> k == Empty) b.kids then
        Empty
      else branch

let rec grow t domid =
  if not (fits domid t.owned_levels) then begin
    if t.owned != Empty then begin
      let kids = Array.make 16 Empty in
      kids.(0) <- t.owned;
      t.owned <- Branch { epoch = t.epoch; kids }
    end;
    t.owned_levels <- t.owned_levels + 1;
    grow t domid
  end

let adjust_owned t domid delta =
  grow t domid;
  t.owned <- adjust t t.owned domid (t.owned_levels - 1) delta

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
      owned = Empty;
      owned_levels = 1;
      epoch = 0;
      epochs = ref 0;
      memo_path = Xs_path.root;
      memo_node = root;
    }
  in
  adjust_owned t 0 5;
  t

(* The node [path] names below [root], found by recursing up the
   path's parent chain and descending on the way back; raises
   [Not_found] at a missing segment, and allocates nothing. *)
let rec find_in (root : Node.t) (path : Xs_path.t) =
  match path with
  | Root -> root
  | Seg { parent; seg; _ } -> SMap.find seg (find_in root parent).children
  | Special _ -> raise_notrace Not_found

let find t path =
  if path == t.memo_path then t.memo_node
  else begin
    let node = find_in t.root path in
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

(* Raised by [probe] when [path] ends below the tree: the deepest
   existing node on it, and that node's path, an ancestor of [path] on
   its chain. A walk that finds its node allocates nothing; one that
   misses allocates this, once. *)
exception Missing of Node.t * Xs_path.t

(* [find_in] for a mutation, which needs the deepest existing node
   when the path is missing. *)
let rec probe (root : Node.t) (path : Xs_path.t) =
  match path with
  | Root | Special _ -> root
  | Seg { parent; seg; _ } -> (
      let node = probe root parent in
      match SMap.find seg node.children with
      | child -> child
      | exception Not_found -> raise_notrace (Missing (node, parent)))

(* The node at [path] made the store's own: every shared node on the
   way, the root included, is copied into the store's epoch and the
   copy linked into its parent. *)
let rec own t (path : Xs_path.t) : Node.t =
  match path with
  | Root | Special _ ->
      if t.root.epoch <> t.epoch then t.root <- { t.root with epoch = t.epoch };
      t.root
  | Seg { parent; seg; _ } ->
      let dir = own t parent in
      let child = SMap.find seg dir.children in
      if child.epoch = t.epoch then child
      else begin
        let copy = { child with epoch = t.epoch } in
        dir.children <- SMap.add seg copy dir.children;
        copy
      end

(* [node], found at [path], made the store's own. *)
let writable t (node : Node.t) path =
  if node.epoch = t.epoch then node else own t path

let mutated t =
  t.generation <- t.generation + 1;
  forget t

(* Links [node], the new node at [path], into [dir], the deepest
   existing node at [top], creating an empty directory, owned as
   [node] is, at each missing level between them; returns the number
   of nodes created. The chain is built bottom-up and linked into the
   tree once, at the top. *)
let rec link (dir : Node.t) top (path : Xs_path.t) (node : Node.t) created =
  match path with
  | Root | Special _ -> assert false (* [top] is an ancestor of [path] *)
  | Seg { parent; seg; _ } ->
      if parent == top then begin
        dir.children <- SMap.add seg node dir.children;
        created
      end
      else
        link dir top parent
          {
            Node.value = "";
            perms = node.perms;
            children = SMap.singleton seg node;
            epoch = node.epoch;
          }
          (created + 1)

(* Creates the nodes missing from [path] below [dir], the deepest
   existing node, at [top]. Every created node is owned by [caller],
   so the ownership counts are touched once per mutation. *)
let add t ~caller path dir top value =
  let dir = writable t dir top in
  let node =
    {
      Node.value;
      perms = Xs_perms.owned_default caller;
      children = SMap.empty;
      epoch = t.epoch;
    }
  in
  let created = link dir top path node 1 in
  t.count <- t.count + created;
  adjust_owned t caller created;
  mutated t

(* Every mutation makes all of its checks before it changes anything,
   so a failed one leaves the tree as it was. Creating needs write
   permission on the deepest existing node; the implicit directories
   below it are the caller's own. *)
let write t ~caller (path : Xs_path.t) value =
  match path with
  | Root | Special _ -> Error Xs_error.EINVAL
  | Seg _ -> (
      match probe t.root path with
      | node ->
          if not (Xs_perms.can_write node.perms ~domid:caller) then
            Error Xs_error.EACCES
          else if String.equal node.value value then begin
            (* Same-value refresh (clients re-assert keys they already
               own): the tree would not change, so nothing is copied.
               The write still counts — generation bumps, watches fire
               at the server layer. *)
            t.generation <- t.generation + 1;
            Ok ()
          end
          else begin
            (writable t node path).value <- value;
            mutated t;
            Ok ()
          end
      | exception Missing (dir, top) ->
          if not (Xs_perms.can_write dir.perms ~domid:caller) then
            Error Xs_error.EACCES
          else begin
            add t ~caller path dir top value;
            Ok ()
          end)

let mkdir t ~caller (path : Xs_path.t) =
  match path with
  | Special _ -> Error Xs_error.EINVAL
  | Root | Seg _ -> (
      match probe t.root path with
      | _ -> Ok () (* silent success, like the real daemon *)
      | exception Missing (dir, top) ->
          if not (Xs_perms.can_write dir.perms ~domid:caller) then
            Error Xs_error.EACCES
          else begin
            add t ~caller path dir top "";
            Ok ()
          end)

let set_perms t ~caller (path : Xs_path.t) perms =
  match path with
  | Root | Special _ -> Error Xs_error.EINVAL
  | Seg _ -> (
      match probe t.root path with
      | exception Missing (dir, _) ->
          if Xs_perms.can_write dir.perms ~domid:caller then
            Error Xs_error.ENOENT
          else Error Xs_error.EACCES
      | node ->
          let old_owner = Xs_perms.owner node.perms in
          if caller = 0 || old_owner = caller then begin
            (writable t node path).perms <- perms;
            let new_owner = Xs_perms.owner perms in
            if old_owner <> new_owner then begin
              adjust_owned t old_owner (-1);
              adjust_owned t new_owner 1
            end;
            mutated t;
            Ok ()
          end
          else Error Xs_error.EACCES)

(* Takes [node]'s subtree out of the node count and the owned counts,
   in one walk. The store is the fold's accumulator, so the walk builds
   no closure. *)
let rec uncount t (node : Node.t) =
  t.count <- t.count - 1;
  adjust_owned t (Xs_perms.owner node.perms) (-1);
  SMap.fold (fun _ child t -> uncount t child) node.children t

let rm t ~caller (path : Xs_path.t) =
  match path with
  | Root | Special _ -> Error Xs_error.EINVAL
  | Seg { parent = up; seg; _ } -> (
      match find_in t.root up with
      | exception Not_found -> Error Xs_error.ENOENT
      | dir -> (
          match SMap.find seg dir.children with
          | exception Not_found -> Error Xs_error.ENOENT
          | target ->
              if
                not
                  (Xs_perms.can_write dir.perms ~domid:caller
                  || Xs_perms.can_write target.perms ~domid:caller)
              then Error Xs_error.EACCES
              else begin
                let dir = writable t dir up in
                dir.children <- SMap.remove seg dir.children;
                ignore (uncount t target);
                mutated t;
                Ok ()
              end))

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
      snap_owned_levels = t.owned_levels;
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
    owned_levels = s.snap_owned_levels;
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
  t.owned_levels <- from.owned_levels;
  t.epochs <- from.epochs;
  t.epoch <- from.epoch;
  forget t;
  from.epoch <- fresh_epoch from.epochs
