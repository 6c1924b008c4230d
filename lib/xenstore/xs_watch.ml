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

type t = {
  root : node;
  specials : (string, node) Hashtbl.t;
  by_owner : (int, owner_slot) Hashtbl.t;
  mutable total : int;
  mutable next_seq : int;
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
  }

let count t = t.total

let count_for t ~owner =
  match Hashtbl.find_opt t.by_owner owner with
  | Some slot -> slot.n
  | None -> 0

(* The node a path's watches live at, creating the spine on demand. *)
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
  else
    List.fold_left
      (fun node seg ->
        match SMap.find_opt seg node.children with
        | Some child -> child
        | None ->
            let child = mk_node ~parent:node ~seg () in
            node.children <- SMap.add seg child node.children;
            child)
      t.root (Xs_path.segments path)

(* Read-only lookup: [None] when no watch was ever registered there. *)
let find_node t path =
  if Xs_path.is_special path then
    Hashtbl.find_opt t.specials (Xs_path.to_string path)
  else
    let rec go node = function
      | [] -> Some node
      | seg :: rest -> (
          match SMap.find_opt seg node.children with
          | None -> None
          | Some child -> go child rest)
    in
    go t.root (Xs_path.segments path)

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

(* The watches on the trie spine along [segs], pushed onto [acc]: by
   construction exactly those whose path is a prefix of (or equal to)
   the path [segs] spells. *)
let rec spine acc node segs =
  let acc = List.rev_append node.here acc in
  match segs with
  | [] -> acc
  | seg :: rest -> (
      match SMap.find seg node.children with
      | child -> spine acc child rest
      | exception Not_found -> acc)

let hit w = (w.path, w.token, w.deliver)

let matching t ~modified =
  (* A special modified path matches exactly its bucket; otherwise the
     trie walk along [modified]'s segments collects the hits. Cost:
     O(depth + hits), independent of the registry size. Most fires hit
     nothing, so the walk allocates only per hit, and fewer than two
     hits skip [List.sort]: it allocates the closures of its local
     merge functions (21 words) before it checks the length. *)
  let hits =
    if Xs_path.is_special modified then
      match Hashtbl.find t.specials (Xs_path.to_string modified) with
      | node -> node.here
      | exception Not_found -> []
    else spine [] t.root (Xs_path.segments modified)
  in
  match hits with
  | [] -> []
  | [ w ] -> [ hit w ]
  | _ -> List.map hit (List.sort (fun a b -> Int.compare a.seq b.seq) hits)
