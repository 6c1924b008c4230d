type t = {
  name : string;
  kernel : string;
  memory_mb : float;
  vcpus : int;
  vifs : string list;
  disks : string list;
  on_crash : string;
  extra : (string * string) list;
}

type value =
  | Str of string
  | Num of float
  | Lst of string list

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* ------------------------------------------------------------------ *)
(* Single-pass lexing: one cursor walk over the raw text, working on
   [(start, end)] ranges of the original string. No per-line
   substrings, no re-strip copies, no item buffers — the only
   allocations are the final key/value strings themselves. *)

let is_space c = c = ' ' || c = '\t' || c = '\r'

(* Trim the range [a, b) of [s] on both sides. *)
let trim s a b =
  let a = ref a and b = ref b in
  while !a < !b && is_space s.[!a] do incr a done;
  while !b > !a && is_space s.[!b - 1] do decr b done;
  (!a, !b)

(* [a, b) spans the value including its quotes. *)
let parse_quoted line s a b =
  if b - a < 2 || s.[b - 1] <> s.[a] then fail line "unterminated string"
  else String.sub s (a + 1) (b - a - 2)

(* [a, b) spans the bracketed list. Items split on commas outside
   quotes, so specs like 'ramdisk,xvda,w' stay intact. *)
let parse_list line s a b =
  if b - a < 2 || s.[a] <> '[' || s.[b - 1] <> ']' then
    fail line "malformed list";
  let ia, ib = trim s (a + 1) (b - 1) in
  if ia >= ib then []
  else begin
    let ranges = ref [] in
    let start = ref ia in
    let in_quote = ref false and quote = ref ' ' in
    for i = ia to ib - 1 do
      match s.[i] with
      | ('"' | '\'') as c when not !in_quote ->
          in_quote := true;
          quote := c
      | c when !in_quote && c = !quote -> in_quote := false
      | ',' when not !in_quote ->
          ranges := (!start, i) :: !ranges;
          start := i + 1
      | _ -> ()
    done;
    if !in_quote then fail line "unterminated string in list";
    ranges := (!start, ib) :: !ranges;
    (* [ranges] is reversed, so [rev_map] restores item order. *)
    List.rev_map
      (fun (a, b) ->
        let a, b = trim s a b in
        if b - a >= 2 && (s.[a] = '"' || s.[a] = '\'') then
          parse_quoted line s a b
        else
          fail line ("list items must be quoted: " ^ String.sub s a (b - a)))
      !ranges
  end

(* [a, b) is the already-trimmed, non-empty value range. *)
let parse_value line s a b =
  if s.[a] = '[' then Lst (parse_list line s a b)
  else if s.[a] = '"' || s.[a] = '\'' then Str (parse_quoted line s a b)
  else begin
    (* Bare integers dominate (memory, vcpus): read them in place
       rather than paying a substring plus the strtod round trip.
       Anything else — floats, hex, underscores — falls back. *)
    let digits a0 =
      let rec go i acc =
        if i >= b then Some acc
        else
          let c = s.[i] in
          if c >= '0' && c <= '9' then
            go (i + 1) ((acc * 10) + (Char.code c - Char.code '0'))
          else None
      in
      if a0 >= b then None else go a0 0
    in
    let quick =
      if b - a > 15 then None
      else if s.[a] = '-' then
        match digits (a + 1) with
        | Some v -> Some (float_of_int (-v))
        | None -> None
      else
        match digits a with
        | Some v -> Some (float_of_int v)
        | None -> None
    in
    match quick with
    | Some f -> Num f
    | None -> (
        let raw = String.sub s a (b - a) in
        match float_of_string_opt raw with
        | Some f -> Num f
        | None -> fail line ("cannot parse value: " ^ raw))
  end

(* Compare the range [a, b) of [s] against a literal without building
   the key string (it is only materialised for unknown keys). *)
let range_eq s a b lit =
  let n = String.length lit in
  b - a = n
  &&
  let rec go i = i >= n || (s.[a + i] = lit.[i] && go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)

let default =
  {
    name = "";
    kernel = "";
    memory_mb = 4.;
    vcpus = 1;
    vifs = [];
    disks = [];
    on_crash = "destroy";
    extra = [];
  }

let parse text =
  let n = String.length text in
  (* Mutable accumulator instead of a record copy per key; [extra]
     accumulates reversed and is reversed once at the end. *)
  let name = ref default.name and kernel = ref default.kernel in
  let memory_mb = ref default.memory_mb and vcpus = ref default.vcpus in
  let vifs = ref default.vifs and disks = ref default.disks in
  let on_crash = ref default.on_crash in
  let extra = ref [] in
  try
    let i = ref 0 and line = ref 1 in
    while !i < n do
      let ls = !i in
      let eol =
        match String.index_from_opt text ls '\n' with
        | Some j -> j
        | None -> n
      in
      (* Content ends at the first [#] outside quotes. *)
      let ce =
        let stop = ref (-1) in
        let j = ref ls in
        let in_quote = ref false and quote = ref ' ' in
        while !stop < 0 && !j < eol do
          (match text.[!j] with
          | ('"' | '\'') as c when not !in_quote ->
              in_quote := true;
              quote := c
          | c when !in_quote && c = !quote -> in_quote := false
          | '#' when not !in_quote -> stop := !j
          | _ -> ());
          incr j
        done;
        if !stop >= 0 then !stop else eol
      in
      let a, b = trim text ls ce in
      if a < b then begin
        let eq =
          let rec find j = if j >= b then -1 else if text.[j] = '=' then j else find (j + 1) in
          find a
        in
        if eq < 0 then fail !line "expected key = value";
        let ka, kb = trim text a eq in
        if ka >= kb then fail !line "empty key";
        let va, vb = trim text (eq + 1) b in
        if va >= vb then fail !line "missing value";
        let value = parse_value !line text va vb in
        let keq lit = range_eq text ka kb lit in
        let expects what lit = fail !line (lit ^ " expects a " ^ what) in
        if keq "name" then (
          match value with
          | Str s -> name := s
          | _ -> expects "string" "name")
        else if keq "kernel" then (
          match value with
          | Str s -> kernel := s
          | _ -> expects "string" "kernel")
        else if keq "memory" then (
          match value with
          | Num f -> memory_mb := f
          | _ -> expects "number" "memory")
        else if keq "vcpus" then (
          match value with
          | Num f -> vcpus := int_of_float f
          | _ -> expects "number" "vcpus")
        else if keq "vif" then (
          match value with
          | Lst items -> vifs := items
          | _ -> expects "list" "vif")
        else if keq "disk" then (
          match value with
          | Lst items -> disks := items
          | _ -> expects "list" "disk")
        else if keq "on_crash" then (
          match value with
          | Str s -> on_crash := s
          | _ -> expects "string" "on_crash")
        else if keq "maxmem" && (match value with Num _ -> true | _ -> false)
        then () (* accepted and ignored, as xl does *)
        else begin
          let key = String.sub text ka (kb - ka) in
          match value with
          | Str s -> extra := (key, s) :: !extra
          | Num f -> extra := (key, Printf.sprintf "%g" f) :: !extra
          | Lst items -> extra := (key, String.concat ";" items) :: !extra
        end
      end;
      i := eol + 1;
      incr line
    done;
    if !name = "" then Error "missing required key: name"
    else if !kernel = "" then Error "missing required key: kernel"
    else
      Ok
        {
          name = !name;
          kernel = !kernel;
          memory_mb = !memory_mb;
          vcpus = !vcpus;
          vifs = !vifs;
          disks = !disks;
          on_crash = !on_crash;
          extra = List.rev !extra;
        }
  with Parse_error (line, msg) ->
    Error (Printf.sprintf "line %d: %s" line msg)

(* One buffer, written piece by piece: [%g] is the only format left, for
   [memory], where it decides the bytes. *)
let to_string cfg =
  let b = Buffer.create 256 in
  let line key value =
    Buffer.add_string b key;
    Buffer.add_string b " = ";
    Buffer.add_string b value;
    Buffer.add_char b '\n'
  in
  let quoted_line key value =
    Buffer.add_string b key;
    Buffer.add_string b " = \"";
    Buffer.add_string b value;
    Buffer.add_string b "\"\n"
  in
  let list_line key = function
    | [] -> ()
    | first :: rest ->
        Buffer.add_string b key;
        Buffer.add_string b " = ['";
        Buffer.add_string b first;
        List.iter
          (fun item ->
            Buffer.add_string b "', '";
            Buffer.add_string b item)
          rest;
        Buffer.add_string b "']\n"
  in
  quoted_line "name" cfg.name;
  quoted_line "kernel" cfg.kernel;
  line "memory" (Printf.sprintf "%g" cfg.memory_mb);
  line "vcpus" (string_of_int cfg.vcpus);
  list_line "vif" cfg.vifs;
  list_line "disk" cfg.disks;
  quoted_line "on_crash" cfg.on_crash;
  List.iter (fun (k, v) -> quoted_line k v) cfg.extra;
  Buffer.contents b

let devices cfg =
  let module Device = Lightvm_guest.Device in
  List.mapi
    (fun i detail ->
      let bridge =
        match String.index_opt detail '=' with
        | Some j when String.sub detail 0 j = "bridge" ->
            String.sub detail (j + 1) (String.length detail - j - 1)
        | _ -> "xenbr0"
      in
      Device.vif ~bridge ~devid:i ())
    cfg.vifs
  @ List.mapi
      (fun i spec -> Device.vbd ~target:spec ~devid:i ())
      cfg.disks

let image cfg = Lightvm_guest.Image.find cfg.kernel

let make ?(memory_mb = 4.) ?(vcpus = 1) ?(vifs = []) ?(disks = []) ~name
    ~kernel () =
  { name; kernel; memory_mb; vcpus; vifs; disks; on_crash = "destroy";
    extra = [] }

let for_image ?(nics = 1) ?(disks = 0) ~name img =
  let module Image = Lightvm_guest.Image in
  let vifs = List.init nics (fun _ -> "bridge=xenbr0") in
  let disk_specs = List.init disks (fun i ->
      Printf.sprintf "ramdisk,xvd%c,w" (Char.chr (Char.code 'a' + i)))
  in
  make ~memory_mb:img.Image.mem_mb ~vcpus:1 ~vifs ~disks:disk_specs
    ~name ~kernel:img.Image.name ()
