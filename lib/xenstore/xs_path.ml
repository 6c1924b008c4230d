(* A path is a chain of nodes up to the root, one segment per node: the
   parent/child relation the XenStore spec defines paths by. Each node
   also holds the byte length of its canonical string, so [concat] is
   one node whatever the depth, and sizes are known without the string.
   The string itself is built only by [to_string]: for the wire, dumps
   and the few paths stored as values. Walkers ([Xs_store], [Xs_watch],
   [Xs_server]'s name checks) recurse on the chain. *)
type t =
  | Root
  | Seg of { parent : t; seg : string; len : int }
  | Special of string

exception Invalid of string

let max_path_length = 3072
let max_segment_length = 256

let root = Root

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

let length = function
  | Root -> 1
  | Seg s -> s.len
  | Special s -> String.length s

let concat p seg =
  let dir =
    match p with
    | Root -> 0
    | Seg s -> s.len
    | Special _ -> raise (Invalid "cannot extend a special path")
  in
  check_segment seg;
  let len = dir + 1 + String.length seg in
  if len > max_path_length then raise (Invalid "path too long");
  Seg { parent = p; seg; len }

let ( / ) = concat

let specials = [ "@introduceDomain"; "@releaseDomain" ]

let of_string s =
  if List.mem s specials then Special s
  else begin
    if String.length s > max_path_length then raise (Invalid "path too long");
    if s = "" then raise (Invalid "empty path");
    if s.[0] <> '/' then raise (Invalid ("path not absolute: " ^ s));
    if s = "/" then root
    else begin
      (* Tolerate a single trailing slash, as the real daemon does. *)
      let s =
        if s.[String.length s - 1] = '/' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      match String.split_on_char '/' s with
      | "" :: segs -> List.fold_left concat root segs
      | _ -> raise (Invalid ("path not absolute: " ^ s))
    end
  end

let of_string_opt s = try Some (of_string s) with Invalid _ -> None

(* Each segment is copied to its place from the end of the string
   back, so the string is the only allocation. *)
let to_string = function
  | Root -> "/"
  | Special s -> s
  | Seg s as t ->
      let b = Bytes.create s.len in
      let rec fill = function
        | Root | Special _ -> ()
        | Seg { parent; seg; len } ->
            let n = String.length seg in
            Bytes.unsafe_set b (len - n - 1) '/';
            Bytes.unsafe_blit_string seg 0 b (len - n) n;
            fill parent
      in
      fill t;
      Bytes.unsafe_to_string b

let segments t =
  let rec up acc = function
    | Root | Special _ -> acc
    | Seg { parent; seg; _ } -> up (seg :: acc) parent
  in
  up [] t

let is_special = function Special _ -> true | Root | Seg _ -> false

let depth t =
  let rec up n = function
    | Root | Special _ -> n
    | Seg { parent; _ } -> up (n + 1) parent
  in
  up 0 t

let parent = function
  | Seg { parent; _ } -> Some parent
  | Root | Special _ -> None

let basename = function
  | Seg { seg; _ } -> Some seg
  | Root | Special _ -> None

(* Equal lengths at every level, so the chains have the same depth. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Seg x, Seg y ->
      x.len = y.len && String.equal x.seg y.seg && equal x.parent y.parent
  | Special x, Special y -> String.equal x y
  | Root, Root -> true
  | (Root | Seg _ | Special _), _ -> false

(* The ancestor-or-self of [t] whose string is [len] bytes long or
   shorter: lengths shrink strictly up the chain. *)
let rec up_to len = function
  | Seg s when s.len > len -> up_to len s.parent
  | t -> t

let is_prefix p ~of_ =
  match (p, of_) with
  | Special a, Special b -> String.equal a b
  | Special _, _ | _, Special _ -> false
  | Root, _ -> true
  | Seg s, _ -> equal p (up_to s.len of_)

(* The string order: '-', '.' and '+' sort before '/', so comparing
   segment by segment would order "/a/b" and "/a-c" the other way. *)
let compare a b =
  if a == b then 0 else String.compare (to_string a) (to_string b)


let local_domain = of_string "/local/domain"

let domain_path domid = concat local_domain (string_of_int domid)
