(* A path carries both its canonical string and its segment list:
   store operations walk [segs] and logging/compare use [str], so
   neither is ever re-split or re-joined on the hot path. Paths are
   plain values with no per-domain tables behind them: callers build
   them with [concat] from directory paths they already hold, and only
   wire input, the CLI and tests parse strings. *)
type t = {
  str : string; (* canonical form: "/", "/a/b", or "@special" *)
  segs : string list; (* [] for the root and for specials *)
  special : bool;
}

exception Invalid of string

let max_path_length = 3072
let max_segment_length = 256

let root = { str = "/"; segs = []; special = false }

let segment_char_ok c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':' || c = '@' || c = '+'

let check_segment s =
  if s = "" then raise (Invalid "empty path segment");
  if String.length s > max_segment_length then
    raise (Invalid ("segment too long: " ^ s));
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if not (segment_char_ok c) then
      raise (Invalid (Printf.sprintf "illegal character %C in %S" c s))
  done

let specials = [ "@introduceDomain"; "@releaseDomain" ]

let of_string s =
  if List.mem s specials then { str = s; segs = []; special = true }
  else begin
    if String.length s > max_path_length then raise (Invalid "path too long");
    if s = "" then raise (Invalid "empty path");
    if s.[0] <> '/' then raise (Invalid ("path not absolute: " ^ s));
    if s = "/" then root
    else begin
      (* Tolerate a single trailing slash, as the real daemon does. *)
      let s =
        if String.length s > 1 && s.[String.length s - 1] = '/' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      let parts = String.split_on_char '/' s in
      match parts with
      | "" :: segs ->
          List.iter check_segment segs;
          { str = s; segs; special = false }
      | _ -> raise (Invalid ("path not absolute: " ^ s))
    end
  end

let of_string_opt s = try Some (of_string s) with Invalid _ -> None

let to_string t = t.str

let segments t = t.segs

let is_special t = t.special

let depth t = List.length t.segs

let extend p = function
  | [] -> p
  | segs ->
      if p.special then raise (Invalid "cannot extend a special path");
      List.iter check_segment segs;
      let dir = if p.segs = [] then "" else p.str in
      let str = String.concat "/" (dir :: segs) in
      if String.length str > max_path_length then
        raise (Invalid "path too long");
      { str; segs = p.segs @ segs; special = false }

let concat p seg = extend p [ seg ]

let ( / ) = concat

let parent t =
  if t.special then None
  else
    match t.segs with
    | [] -> None
    | segs ->
        let rec drop_last = function
          | [] | [ _ ] -> []
          | x :: rest -> x :: drop_last rest
        in
        let i = String.rindex t.str '/' in
        if i = 0 then Some root
        else
          Some
            { str = String.sub t.str 0 i; segs = drop_last segs;
              special = false }

let basename t =
  if t.special then None
  else
    match t.segs with
    | [] -> None
    | segs -> Some (List.nth segs (List.length segs - 1))

let is_prefix p ~of_ =
  match (p.special, of_.special) with
  | true, true -> String.equal p.str of_.str
  | true, false | false, true -> false
  | false, false ->
      let rec go = function
        | [], _ -> true
        | _, [] -> false
        | x :: xs, y :: ys -> String.equal x y && go (xs, ys)
      in
      go (p.segs, of_.segs)

let equal a b = String.equal a.str b.str
let compare a b = String.compare a.str b.str
let pp fmt t = Format.pp_print_string fmt t.str

let local_domain = of_string "/local/domain"

let domain_path domid = concat local_domain (string_of_int domid)
