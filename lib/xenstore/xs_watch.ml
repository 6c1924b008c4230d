type event = { event_path : Xs_path.t; token : string }

type watch = {
  owner : int;
  path : Xs_path.t;
  token : string;
  deliver : event -> unit;
  seq : int; (* registration order; the dispatch order contract *)
}

(* Children are keyed by segment name, as in [Xs_store]. *)
module SMap = Map.Make (String)

(* One trie node per registered path prefix. [here] holds the watches
   whose path ends exactly at this node, newest first (matching the
   old list's push order); [children] is a persistent map, so a leaf
   costs one empty-map constant instead of a hashtable's buckets.
   Special paths (@introduceDomain/@releaseDomain) get parent-less
   bucket nodes outside the trie, so the same node/index machinery
   covers them without prefix semantics leaking in. *)
type node = {
  mutable here : watch list;
  mutable children : node SMap.t;
  parent : node option; (* None for the root and the special buckets *)
  seg : string; (* key of this node in [parent]'s children *)
}

(* Per-owner index: every watch of a domain with the node holding it,
   so quota checks are O(1) and release is O(own watches), not a scan
   of the registry. *)
type owner_slot = {
  mutable n : int;
  mutable entries : (node * watch) list;
}

(* [hits] is scratch space for [matching]: the walk collects its hits
   there and [matching] empties it before returning, so a fire that
   hits nothing allocates nothing and the registry holds no stale
   list between fires. *)
type t = {
  root : node;
  specials : (string, node) Hashtbl.t;
  by_owner : (int, owner_slot) Hashtbl.t;
  mutable total : int;
  mutable next_seq : int;
  mutable hits : watch list;
}

let mk_node ?parent ?(seg = "") () =
  { here = []; children = SMap.empty; parent; seg }

let create () =
  {
    root = mk_node ();
    specials = Hashtbl.create 2;
    by_owner = Hashtbl.create 64;
    total = 0;
    next_seq = 0;
    hits = [];
  }

let count t = t.total

let count_for t ~owner =
  match Hashtbl.find_opt t.by_owner owner with
  | Some slot -> slot.n
  | None -> 0

(* The trie node of a non-special path, creating the spine on demand:
   the recursion climbs the path's parent chain and descends on the
   way back. *)
let rec spine_node t (path : Xs_path.t) =
  match path with
  | Root | Special _ -> t.root
  | Seg { parent; seg; _ } -> (
      let node = spine_node t parent in
      match SMap.find seg node.children with
      | child -> child
      | exception Not_found ->
          let child = mk_node ~parent:node ~seg () in
          node.children <- SMap.add seg child node.children;
          child)

(* The node a path's watches live at, created on demand. *)
let node_for t path =
  if Xs_path.is_special path then begin
    let key = Xs_path.to_string path in
    match Hashtbl.find_opt t.specials key with
    | Some node -> node
    | None ->
        let node = mk_node ~seg:key () in
        Hashtbl.replace t.specials key node;
        node
  end
  else spine_node t path

(* The trie node of a non-special path; [Not_found] when no watch was
   ever registered there. *)
let rec trie_node t (path : Xs_path.t) =
  match path with
  | Root | Special _ -> t.root
  | Seg { parent; seg; _ } -> SMap.find seg (trie_node t parent).children

(* Read-only lookup: [None] when no watch was ever registered there. *)
let find_node t path =
  if Xs_path.is_special path then
    Hashtbl.find_opt t.specials (Xs_path.to_string path)
  else
    match trie_node t path with
    | node -> Some node
    | exception Not_found -> None

(* Drop now-empty nodes bottom-up so a churny registry (guests come
   and go) does not leave an ever-growing skeleton behind. Special
   buckets have no parent and are never pruned (there are two). *)
let rec prune node =
  match node.parent with
  | Some parent when node.here = [] && SMap.is_empty node.children ->
      parent.children <- SMap.remove node.seg parent.children;
      prune parent
  | _ -> ()

let slot_for t owner =
  match Hashtbl.find_opt t.by_owner owner with
  | Some slot -> slot
  | None ->
      let slot = { n = 0; entries = [] } in
      Hashtbl.replace t.by_owner owner slot;
      slot

let add t ~owner ~path ~token ~deliver =
  let w = { owner; path; token; deliver; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  let node = node_for t path in
  node.here <- w :: node.here;
  let slot = slot_for t owner in
  slot.n <- slot.n + 1;
  slot.entries <- (node, w) :: slot.entries;
  t.total <- t.total + 1

let drop_from_owner t w =
  match Hashtbl.find_opt t.by_owner w.owner with
  | None -> ()
  | Some slot ->
      slot.entries <- List.filter (fun (_, w') -> w' != w) slot.entries;
      slot.n <- slot.n - 1;
      if slot.n = 0 then Hashtbl.remove t.by_owner w.owner

let remove t ~owner ~path ~token =
  match find_node t path with
  | None -> false
  | Some node ->
      let gone, kept =
        List.partition
          (fun w ->
            w.owner = owner
            && Xs_path.equal w.path path
            && String.equal w.token token)
          node.here
      in
      if gone = [] then false
      else begin
        node.here <- kept;
        prune node;
        List.iter (drop_from_owner t) gone;
        t.total <- t.total - List.length gone;
        true
      end

let remove_owner t ~owner =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> 0
  | Some slot ->
      Hashtbl.remove t.by_owner owner;
      List.iter
        (fun (node, w) ->
          node.here <- List.filter (fun w' -> w' != w) node.here;
          prune node)
        slot.entries;
      t.total <- t.total - slot.n;
      slot.n

(* Pushes onto [t.hits] the watches on the trie spine down to [path]:
   by construction exactly those whose path is a prefix of (or equal
   to) [path]. Raises [Not_found] below the deepest trie node on the
   way, once the hits above it are collected. *)
let rec spine t (path : Xs_path.t) =
  let node =
    match path with
    | Root | Special _ -> t.root
    | Seg { parent; seg; _ } -> SMap.find seg (spine t parent).children
  in
  if node.here != [] then t.hits <- List.rev_append node.here t.hits;
  node

let hit w = (w.path, w.token, w.deliver)

let matching t ~modified =
  (* A special modified path matches exactly its bucket; otherwise the
     trie walk along [modified]'s chain collects the hits. Cost:
     O(depth + hits), independent of the registry size. Most fires hit
     nothing, so the walk allocates only per hit, and fewer than two
     hits skip [List.sort]: it allocates the closures of its local
     merge functions (21 words) before it checks the length. *)
  let hits =
    if Xs_path.is_special modified then
      match Hashtbl.find t.specials (Xs_path.to_string modified) with
      | node -> node.here
      | exception Not_found -> []
    else begin
      (match spine t modified with _ -> () | exception Not_found -> ());
      let hits = t.hits in
      t.hits <- [];
      hits
    end
  in
  match hits with
  | [] -> []
  | [ w ] -> [ hit w ]
  | _ -> List.map hit (List.sort (fun a b -> Int.compare a.seq b.seq) hits)
