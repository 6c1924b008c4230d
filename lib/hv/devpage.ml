type kind = Vif | Vbd | Sysctl

type entry = {
  kind : kind;
  devid : int;
  backend_domid : int;
  grant_ref : int;
  evtchn_port : int;
}

type error = No_page | Access_denied | Page_full | No_entry

module Tbl = Hashtbl.Make (Int)

(* domid -> the page's entries, in write order. *)
type t = { pages : entry list Tbl.t }

(* A 4 KiB page holds a header plus 32-byte entries. *)
let max_entries = 120

let create () = { pages = Tbl.create 32 }

let setup t ~domid =
  if not (Tbl.mem t.pages domid) then Tbl.replace t.pages domid []

let teardown t ~domid = Tbl.remove t.pages domid

let same_slot a ~kind ~devid = a.kind = kind && a.devid = devid

let rec has_slot ~kind ~devid = function
  | [] -> false
  | e :: rest -> same_slot e ~kind ~devid || has_slot ~kind ~devid rest

(* Slots are unique, so this drops at most one entry. *)
let rec without ~kind ~devid = function
  | [] -> []
  | e :: rest ->
      if same_slot e ~kind ~devid then rest else e :: without ~kind ~devid rest

(* A rewritten slot moves to the end of the page. *)
let write_entry t ~caller ~domid entry =
  if caller <> 0 then Error Access_denied
  else
    match Tbl.find t.pages domid with
    | exception Not_found -> Error No_page
    | page ->
        let kind = entry.kind and devid = entry.devid in
        let others =
          if has_slot ~kind ~devid page then without ~kind ~devid page
          else page
        in
        if List.compare_length_with others max_entries >= 0 then
          Error Page_full
        else begin
          Tbl.replace t.pages domid (others @ [ entry ]);
          Ok ()
        end

let read t ~caller ~domid =
  if caller <> 0 && caller <> domid then Error Access_denied
  else
    match Tbl.find t.pages domid with
    | exception Not_found -> Error No_page
    | page -> Ok page

let rec find_slot ~kind ~devid = function
  | [] -> Error No_entry
  | e :: rest ->
      if same_slot e ~kind ~devid then Ok e else find_slot ~kind ~devid rest

let find t ~caller ~domid ~kind ~devid =
  if caller <> 0 && caller <> domid then Error Access_denied
  else
    match Tbl.find t.pages domid with
    | exception Not_found -> Error No_page
    | page -> find_slot ~kind ~devid page
