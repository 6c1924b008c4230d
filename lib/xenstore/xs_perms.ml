type role = None_ | Read | Write | Both

type t = { owner : int; default : role; acl : (int * role) list }

let make ~owner ?(default = None_) ?(acl = []) () = { owner; default; acl }

let owner t = t.owner

let owned_default owner = { owner; default = None_; acl = [] }

let role_for t domid =
  if domid = t.owner then Both
  else
    match List.assoc_opt domid t.acl with
    | Some r -> r
    | None -> t.default

let can_read t ~domid =
  domid = 0
  || match role_for t domid with Read | Both -> true | None_ | Write -> false

let can_write t ~domid =
  domid = 0
  || match role_for t domid with Write | Both -> true | None_ | Read -> false

let grant t ~domid role =
  let acl = (domid, role) :: List.remove_assoc domid t.acl in
  { t with acl }

let role_char = function
  | None_ -> 'n'
  | Read -> 'r'
  | Write -> 'w'
  | Both -> 'b'

let role_of_char = function
  | 'n' -> Some None_
  | 'r' -> Some Read
  | 'w' -> Some Write
  | 'b' -> Some Both
  | _ -> None

let to_string t =
  let entry role domid = Printf.sprintf "%c%d" (role_char role) domid in
  String.concat ","
    (entry t.default t.owner
    :: List.map (fun (domid, role) -> entry role domid) t.acl)

(* Decimal digits of [n], with its sign: counted on the non-positive
   side, where [min_int] has a counterpart. *)
let decimal_length n =
  let rec digits n acc = if n > -10 then acc else digits (n / 10) (acc + 1) in
  if n < 0 then 1 + digits n 1 else digits (-n) 1

(* One role character and the domid per entry, a comma between. *)
let wire_length t =
  List.fold_left
    (fun acc (domid, _) -> acc + 2 + decimal_length domid)
    (1 + decimal_length t.owner)
    t.acl

let of_string s =
  let parse_entry e =
    if String.length e < 2 then None
    else
      match role_of_char e.[0] with
      | None -> None
      | Some role -> (
          match int_of_string_opt (String.sub e 1 (String.length e - 1)) with
          | Some domid when domid >= 0 -> Some (domid, role)
          | Some _ | None -> None)
  in
  match String.split_on_char ',' s with
  | [] | [ "" ] -> None
  | first :: rest -> (
      match parse_entry first with
      | None -> None
      | Some (owner, default) ->
          let rec parse_acl acc = function
            | [] -> Some (List.rev acc)
            | e :: tl -> (
                match parse_entry e with
                | None -> None
                | Some (domid, role) -> parse_acl ((domid, role) :: acc) tl)
          in
          Option.map
            (fun acl -> { owner; default; acl })
            (parse_acl [] rest))

let equal a b = a = b

