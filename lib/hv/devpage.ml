type kind = Vif | Vbd | Sysctl

type entry = {
  kind : kind;
  devid : int;
  backend_domid : int;
  grant_ref : int;
  evtchn_port : int;
}

type error = No_page | Access_denied | Page_full | No_entry

type t = { pages : (int, entry list ref) Hashtbl.t }

(* A 4 KiB page holds a header plus 32-byte entries. *)
let max_entries = 120

let create () = { pages = Hashtbl.create 32 }

let setup t ~domid =
  if not (Hashtbl.mem t.pages domid) then
    Hashtbl.replace t.pages domid (ref [])

let teardown t ~domid = Hashtbl.remove t.pages domid

let same_slot a ~kind ~devid = a.kind = kind && a.devid = devid

let write_entry t ~caller ~domid entry =
  if caller <> 0 then Error Access_denied
  else
    match Hashtbl.find_opt t.pages domid with
    | None -> Error No_page
    | Some page ->
        let others =
          List.filter
            (fun e -> not (same_slot e ~kind:entry.kind ~devid:entry.devid))
            !page
        in
        if List.length others >= max_entries then Error Page_full
        else begin
          page := others @ [ entry ];
          Ok ()
        end

let remove_entry t ~caller ~domid ~kind ~devid =
  if caller <> 0 then Error Access_denied
  else
    match Hashtbl.find_opt t.pages domid with
    | None -> Error No_page
    | Some page ->
        if List.exists (fun e -> same_slot e ~kind ~devid) !page then begin
          page := List.filter (fun e -> not (same_slot e ~kind ~devid)) !page;
          Ok ()
        end
        else Error No_entry

let read t ~caller ~domid =
  if caller <> 0 && caller <> domid then Error Access_denied
  else
    match Hashtbl.find_opt t.pages domid with
    | None -> Error No_page
    | Some page -> Ok !page

let find t ~caller ~domid ~kind ~devid =
  match read t ~caller ~domid with
  | Error e -> Error e
  | Ok entries -> (
      match List.find_opt (fun e -> same_slot e ~kind ~devid) entries with
      | Some e -> Ok e
      | None -> Error No_entry)

let kind_to_string = function
  | Vif -> "vif"
  | Vbd -> "vbd"
  | Sysctl -> "sysctl"
