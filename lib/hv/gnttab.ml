module Tbl = Hashtbl.Make (Int)

type gref = int

type error = Invalid_ref | Wrong_domain | Still_mapped | Not_mapped

(* One grant. Every entry sits in its grantee's ring ([prev]/[next]) from
   [grant_access] to the end of its access, so a domain's death finds the
   mappings it held without a scan of the table. *)
type entry = {
  owner : int;
  gref : gref;
  grantee : int;
  frame : int;
  mutable mapped : int; (* mapping refcount *)
  mutable prev : entry;
  mutable next : entry;
}

(* Per domain: the next reference it grants (references are never reused
   until {!release_domain} forgets the domain) and the head of the ring of
   entries granted to it. A domain with neither has no record. *)
type dom = { mutable next_ref : int; mutable ring : entry }

(* [nil] belongs to the table, so a thawed table compares against its
   own copy. *)
type t = { entries : entry Tbl.t; doms : dom Tbl.t; nil : entry }

let first_ref = 8

let create () =
  let rec nil =
    { owner = -1; gref = 0; grantee = -1; frame = 0; mapped = 0; prev = nil;
      next = nil }
  in
  { entries = Tbl.create 64; doms = Tbl.create 16; nil }

(* An entry's table key: the owner above the 32 bits of the reference. *)
let[@inline] key owner gref = (owner lsl 32) lor gref

let dom t domid =
  match Tbl.find t.doms domid with
  | d -> d
  | exception Not_found ->
      let d = { next_ref = first_ref; ring = t.nil } in
      Tbl.replace t.doms domid d;
      d

let forget_if_idle t domid d =
  if d.next_ref = first_ref && d.ring == t.nil then Tbl.remove t.doms domid

let grant_access t ~owner ~grantee ~frame =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  let o = dom t owner in
  let gref = o.next_ref in
  o.next_ref <- gref + 1;
  let g = dom t grantee in
  let entry =
    { owner; gref; grantee; frame; mapped = 0; prev = t.nil; next = g.ring }
  in
  if g.ring != t.nil then g.ring.prev <- entry;
  g.ring <- entry;
  Tbl.replace t.entries (key owner gref) entry;
  gref

let map t ~grantee ~owner gref =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  match Tbl.find t.entries (key owner gref) with
  | exception Not_found -> Error Invalid_ref
  | entry ->
      if entry.grantee <> grantee then Error Wrong_domain
      else begin
        entry.mapped <- entry.mapped + 1;
        Ok entry.frame
      end

let unmap t ~grantee ~owner gref =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  match Tbl.find t.entries (key owner gref) with
  | exception Not_found -> Error Invalid_ref
  | entry ->
      if entry.grantee <> grantee then Error Wrong_domain
      else if entry.mapped = 0 then Error Not_mapped
      else begin
        entry.mapped <- entry.mapped - 1;
        Ok ()
      end

let remove t entry =
  let g = Tbl.find t.doms entry.grantee in
  if entry.prev == t.nil then g.ring <- entry.next
  else entry.prev.next <- entry.next;
  if entry.next != t.nil then entry.next.prev <- entry.prev;
  Tbl.remove t.entries (key entry.owner entry.gref);
  forget_if_idle t entry.grantee g

let end_access t ~owner gref =
  match Tbl.find t.entries (key owner gref) with
  | exception Not_found -> Error Invalid_ref
  | entry ->
      if entry.mapped > 0 then Error Still_mapped
      else begin
        remove t entry;
        Ok ()
      end

(* The domain's own entries are its reference range; the mappings it
   held are its ring. *)
let release_domain t ~domid =
  match Tbl.find t.doms domid with
  | exception Not_found -> 0
  | d ->
      let dropped = ref 0 in
      for gref = first_ref to d.next_ref - 1 do
        match Tbl.find t.entries (key domid gref) with
        | exception Not_found -> ()
        | entry ->
            remove t entry;
            incr dropped
      done;
      let entry = ref d.ring in
      while !entry != t.nil do
        !entry.mapped <- 0;
        entry := !entry.next
      done;
      d.next_ref <- first_ref;
      forget_if_idle t domid d;
      !dropped

let mapped_count t ~owner gref =
  match Tbl.find t.entries (key owner gref) with
  | exception Not_found -> 0
  | entry -> entry.mapped

let count t = Tbl.length t.entries
