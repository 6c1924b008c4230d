(* The table of [(owner, gref)] keys that [Lightvm_hv.Gnttab]'s
   per-domain index replaced, kept as the reference model for
   [test_hv.ml]'s "per-domain index = reference tables" property. Below
   this comment it is the replaced [lib/hv/gnttab.ml] verbatim: every
   grant is one entry of a table keyed by [(owner, gref)], and a
   domain's release folds the whole table. *)

type gref = int

type error = Invalid_ref | Wrong_domain | Still_mapped | Not_mapped

type entry = {
  grantee : int;
  frame : int;
  mutable mapped : int; (* mapping refcount *)
}

type t = {
  table : (int * gref, entry) Hashtbl.t; (* (owner, gref) -> entry *)
  next_ref : (int, int) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; next_ref = Hashtbl.create 16 }

let grant_access t ~owner ~grantee ~frame =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  let gref =
    Option.value ~default:8 (Hashtbl.find_opt t.next_ref owner)
  in
  Hashtbl.replace t.next_ref owner (gref + 1);
  Hashtbl.replace t.table (owner, gref) { grantee; frame; mapped = 0 };
  gref

let map t ~grantee ~owner gref =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  match Hashtbl.find_opt t.table (owner, gref) with
  | None -> Error Invalid_ref
  | Some entry ->
      if entry.grantee <> grantee then Error Wrong_domain
      else begin
        entry.mapped <- entry.mapped + 1;
        Ok entry.frame
      end

let unmap t ~grantee ~owner gref =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  match Hashtbl.find_opt t.table (owner, gref) with
  | None -> Error Invalid_ref
  | Some entry ->
      if entry.grantee <> grantee then Error Wrong_domain
      else if entry.mapped = 0 then Error Not_mapped
      else begin
        entry.mapped <- entry.mapped - 1;
        Ok ()
      end

let end_access t ~owner gref =
  match Hashtbl.find_opt t.table (owner, gref) with
  | None -> Error Invalid_ref
  | Some entry ->
      if entry.mapped > 0 then Error Still_mapped
      else begin
        Hashtbl.remove t.table (owner, gref);
        Ok ()
      end

let release_domain t ~domid =
  let owned =
    Hashtbl.fold
      (fun (o, g) _ acc -> if o = domid then (o, g) :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) owned;
  Hashtbl.iter
    (fun _ entry -> if entry.grantee = domid then entry.mapped <- 0)
    t.table;
  Hashtbl.remove t.next_ref domid;
  List.length owned

let mapped_count t ~owner gref =
  match Hashtbl.find_opt t.table (owner, gref) with
  | None -> 0
  | Some entry -> entry.mapped

let count t = Hashtbl.length t.table
