(* Just enough JSON for the benchmark's own files: the result line a
   run prints, the summaries [run --json] writes and [compare] reads,
   and BENCHMARK.json. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integers print without a fraction; everything else round-trips. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> if Float.is_finite f then number f else "null"
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) l)
      ^ "}"

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !i)) in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t')
    then (incr i; ws ())
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c) in
  let lit word v =
    let m = String.length word in
    if !i + m <= n && String.sub s !i m = word then (i := !i + m; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail "bad escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !i + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !i 4) in
              i := !i + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !i in
        while
          !i < n
          && match s.[!i] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr i
        done;
        (match float_of_string_opt (String.sub s start (!i - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing data";
  v

let of_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string s

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_num = function Num f -> f | _ -> nan
let to_str = function Str s -> s | _ -> ""
let to_assoc = function Obj l -> l | _ -> []
