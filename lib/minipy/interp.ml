open Value

exception Runtime_error of string

exception Step_limit_exceeded

exception Return_exc of Value.t

exception Break_exc

exception Continue_exc

type outcome = {
  stdout : string list;
  result : Value.t;
  steps : int;
}

type env = {
  globals : (string, Value.t) Hashtbl.t;
  mutable locals : (string, Value.t) Hashtbl.t option; (* None at toplevel *)
  mutable steps : int;
  max_steps : int;
  mutable out : string list; (* reversed *)
  mutable last : Value.t;
}

let err fmt = Printf.ksprintf (fun msg -> raise (Runtime_error msg)) fmt

let is_builtin = function
  | "print" | "range" | "len" | "abs" | "str" | "int" | "float" | "min"
  | "max" | "sum" ->
      true
  | _ -> false

let tick env =
  env.steps <- env.steps + 1;
  if env.steps > env.max_steps then raise Step_limit_exceeded

let lookup env name =
  let local =
    match env.locals with
    | Some tbl -> Hashtbl.find_opt tbl name
    | None -> None
  in
  match local with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some v -> v
      | None ->
          if is_builtin name then Str ("<builtin " ^ name ^ ">")
          else err "name '%s' is not defined" name)

let bind env name value =
  match env.locals with
  | Some tbl -> Hashtbl.replace tbl name value
  | None -> Hashtbl.replace env.globals name value

(* ------------------------------------------------------------------ *)
(* Arithmetic *)

let as_float = function
  | Int k -> float_of_int k
  | Float f -> f
  | Bool b -> if b then 1. else 0.
  | v -> err "expected a number, got %s" (Value.type_name v)

let arith op a b =
  match (op, a, b) with
  | Ast.Add, Int x, Int y -> Int (x + y)
  | Ast.Sub, Int x, Int y -> Int (x - y)
  | Ast.Mul, Int x, Int y -> Int (x * y)
  | Ast.Add, Str x, Str y -> Str (x ^ y)
  | Ast.Mul, Str s, Int k | Ast.Mul, Int k, Str s ->
      Str (String.concat "" (List.init (max 0 k) (fun _ -> s)))
  | Ast.Add, List xs, List ys -> List (ref (Array.append !xs !ys))
  | Ast.Mod, Int x, Int y ->
      if y = 0 then err "integer modulo by zero"
      else Int (((x mod y) + y) mod y)
  | Ast.Floordiv, Int x, Int y ->
      if y = 0 then err "integer division by zero"
      else Int (int_of_float (Float.floor (float_of_int x /. float_of_int y)))
  | Ast.Pow, Int x, Int y when y >= 0 ->
      let rec pow acc b e =
        if e = 0 then acc
        else if e land 1 = 1 then pow (acc * b) (b * b) (e lsr 1)
        else pow acc (b * b) (e lsr 1)
      in
      Int (pow 1 x y)
  | Ast.Div, _, _ ->
      let y = as_float b in
      if y = 0. then err "division by zero" else Float (as_float a /. y)
  | Ast.Floordiv, _, _ ->
      let y = as_float b in
      if y = 0. then err "division by zero"
      else Float (Float.floor (as_float a /. y))
  | Ast.Mod, _, _ ->
      let x = as_float a and y = as_float b in
      if y = 0. then err "modulo by zero"
      else Float (x -. (y *. Float.floor (x /. y)))
  | Ast.Pow, _, _ -> Float (Float.pow (as_float a) (as_float b))
  | (Ast.Add | Ast.Sub | Ast.Mul), _, _ -> (
      match (a, b) with
      | (Int _ | Float _ | Bool _), (Int _ | Float _ | Bool _) ->
          let x = as_float a and y = as_float b in
          Float
            (match op with
            | Ast.Add -> x +. y
            | Ast.Sub -> x -. y
            | Ast.Mul -> x *. y
            | _ -> assert false)
      | _ ->
          err "unsupported operand types for %s: %s and %s"
            (Ast.binop_name op) (Value.type_name a) (Value.type_name b))

let compare_values op a b =
  let num_cmp x y =
    match op with
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | Ast.Eq -> x = y
    | Ast.Ne -> x <> y
  in
  match (op, a, b) with
  | (Ast.Eq | Ast.Ne), _, _ ->
      let eq = Value.equal a b in
      Bool (if op = Ast.Eq then eq else not eq)
  | _, Str x, Str y -> Bool (num_cmp (compare x y) 0)
  | _, (Int _ | Float _ | Bool _), (Int _ | Float _ | Bool _) ->
      Bool (num_cmp (compare (as_float a) (as_float b)) 0)
  | _ ->
      err "cannot order %s and %s" (Value.type_name a) (Value.type_name b)

(* ------------------------------------------------------------------ *)
(* Builtins *)

let list_index items i =
  let n = Array.length !items in
  let i = if i < 0 then i + n else i in
  if i < 0 || i >= n then err "list index out of range" else i

let rec builtin env name args =
  match (name, args) with
  | "print", args ->
      env.out <-
        String.concat " " (List.map Value.to_string args) :: env.out;
      None_v
  | "range", [ Int stop ] ->
      List (ref (Array.init (max 0 stop) (fun i -> Int i)))
  | "range", [ Int start; Int stop ] ->
      List (ref (Array.init (max 0 (stop - start)) (fun i -> Int (start + i))))
  | "range", [ Int start; Int stop; Int step ] ->
      if step = 0 then err "range() step must not be zero"
      else begin
        let count =
          if step > 0 then max 0 ((stop - start + step - 1) / step)
          else max 0 ((start - stop - step - 1) / -step)
        in
        List (ref (Array.init count (fun i -> Int (start + (i * step)))))
      end
  | "len", [ Str s ] -> Int (String.length s)
  | "len", [ List items ] -> Int (Array.length !items)
  | "abs", [ Int k ] -> Int (abs k)
  | "abs", [ v ] -> Float (Float.abs (as_float v))
  | "str", [ v ] -> Str (Value.to_string v)
  | "int", [ Int k ] -> Int k
  | "int", [ Float f ] -> Int (int_of_float (Float.trunc f))
  | "int", [ Str s ] -> (
      match int_of_string_opt (String.trim s) with
      | Some k -> Int k
      | None -> err "invalid literal for int(): %s" s)
  | "int", [ Bool b ] -> Int (if b then 1 else 0)
  | "float", [ v ] -> Float (as_float v)
  | "float", [] -> Float 0.
  | ("min" | "max"), [ List items ] when Array.length !items > 0 ->
      Array.fold_left
        (fun acc v ->
          let keep =
            match compare_values Ast.Lt v acc with
            | Bool b -> if name = "min" then b else not b
            | _ -> false
          in
          if keep then v else acc)
        !items.(0) !items
  | ("min" | "max"), (_ :: _ :: _ as vs) ->
      builtin_reduce env name vs
  | "sum", [ List items ] ->
      Array.fold_left (fun acc v -> arith Ast.Add acc v) (Int 0) !items
  | _, _ -> err "bad arguments to builtin %s()" name

and builtin_reduce env name vs =
  builtin env name [ List (ref (Array.of_list vs)) ]

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let rec eval env (e : Ast.expr) : Value.t =
  tick env;
  match e with
  | Ast.Int_lit k -> Int k
  | Ast.Float_lit f -> Float f
  | Ast.Str_lit s -> Str s
  | Ast.Bool_lit b -> Bool b
  | Ast.None_lit -> None_v
  | Ast.Name n -> lookup env n
  | Ast.List_lit items -> List (ref (Array.of_list (List.map (eval env) items)))
  | Ast.Binop (op, a, b) -> arith op (eval env a) (eval env b)
  | Ast.Neg e -> (
      match eval env e with
      | Int k -> Int (-k)
      | Float f -> Float (-.f)
      | v -> err "cannot negate %s" (Value.type_name v))
  | Ast.Not e -> Bool (not (Value.truthy (eval env e)))
  | Ast.Compare (a, op, b) -> compare_values op (eval env a) (eval env b)
  | Ast.And (a, b) ->
      let va = eval env a in
      if Value.truthy va then eval env b else va
  | Ast.Or (a, b) ->
      let va = eval env a in
      if Value.truthy va then va else eval env b
  | Ast.Index (e, i) -> (
      match (eval env e, eval env i) with
      | List items, Int i -> !items.(list_index items i)
      | Str s, Int i ->
          let n = String.length s in
          let i = if i < 0 then i + n else i in
          if i < 0 || i >= n then err "string index out of range"
          else Str (String.make 1 s.[i])
      | v, _ -> err "%s is not indexable" (Value.type_name v))
  | Ast.Method_call (obj, meth, args) -> (
      let v = eval env obj in
      let args = List.map (eval env) args in
      match (v, meth, args) with
      | List items, "append", [ x ] ->
          items := Array.append !items [| x |];
          None_v
      | List items, "pop", [] ->
          let n = Array.length !items in
          if n = 0 then err "pop from empty list"
          else begin
            let last = !items.(n - 1) in
            items := Array.sub !items 0 (n - 1);
            last
          end
      | Str s, "upper", [] -> Str (String.uppercase_ascii s)
      | Str s, "lower", [] -> Str (String.lowercase_ascii s)
      | Str s, "strip", [] -> Str (String.trim s)
      | _ -> err "%s has no method %s" (Value.type_name v) meth)
  | Ast.Call (fname, args) -> (
      let args = List.map (eval env) args in
      if is_builtin fname
         && Option.is_none (Hashtbl.find_opt env.globals fname)
      then builtin env fname args
      else
        match lookup env fname with
        | Func f -> call_function env f args
        | v -> err "%s is not callable" (Value.type_name v))

and call_function env f args =
  if List.length args <> List.length f.params then
    err "%s() takes %d arguments (%d given)" f.fname
      (List.length f.params) (List.length args);
  let frame = Hashtbl.create 8 in
  List.iter2 (fun p a -> Hashtbl.replace frame p a) f.params args;
  let saved = env.locals in
  env.locals <- Some frame;
  let result =
    try
      exec_block env f.body;
      None_v
    with
    | Return_exc v -> v
    | e ->
        env.locals <- saved;
        raise e
  in
  env.locals <- saved;
  result

and assign env target value =
  match target with
  | Ast.Target_name n -> bind env n value
  | Ast.Target_index (e, i) -> (
      match (eval env e, eval env i) with
      | List items, Int i -> !items.(list_index items i) <- value
      | v, _ -> err "cannot index-assign %s" (Value.type_name v))

and read_target env = function
  | Ast.Target_name n -> lookup env n
  | Ast.Target_index (e, i) -> eval env (Ast.Index (e, i))

and exec env (s : Ast.stmt) =
  tick env;
  match s with
  | Ast.Pass -> ()
  | Ast.Expr_stmt e -> env.last <- eval env e
  | Ast.Assign (t, e) -> assign env t (eval env e)
  | Ast.Aug_assign (t, op, e) ->
      let current = read_target env t in
      assign env t (arith op current (eval env e))
  | Ast.Return e ->
      raise (Return_exc (match e with None -> None_v | Some e -> eval env e))
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Def (name, params, body) ->
      bind env name (Func { fname = name; params; body })
  | Ast.If (branches, else_body) ->
      let rec try_branches = function
        | [] -> exec_block env else_body
        | (cond, body) :: rest ->
            if Value.truthy (eval env cond) then exec_block env body
            else try_branches rest
      in
      try_branches branches
  | Ast.While (cond, body) ->
      let rec loop () =
        if Value.truthy (eval env cond) then begin
          (match exec_block env body with
          | () -> ()
          | exception Continue_exc -> ());
          loop ()
        end
      in
      (try loop () with Break_exc -> ())
  | Ast.For (var, iter, body) -> (
      let items =
        match eval env iter with
        | List items -> Array.copy !items
        | Str s ->
            Array.init (String.length s) (fun i -> Str (String.make 1 s.[i]))
        | v -> err "%s is not iterable" (Value.type_name v)
      in
      try
        Array.iter
          (fun item ->
            bind env var item;
            try exec_block env body with Continue_exc -> ())
          items
      with Break_exc -> ())

and exec_block env stmts = List.iter (exec env) stmts

(* ------------------------------------------------------------------ *)

(* The compiled-program cache: the compute services (Fig 17/18) run the
   same small program once per request, and re-lexing/re-parsing it on
   every call dominated the interpreter's cost. Parsed programs are
   cached per domain (simulation workers never share one, so no locks)
   keyed by source text. Parsing consumes no interpreter steps, so a
   cached run's step count is identical to a fresh one's, and the AST
   is immutable after parse so sharing it across runs is safe. *)
let cache_key :
    (string, Ast.stmt list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let cache_limit = 256

let compile ~cache source =
  if not cache then Parser.parse source
  else begin
    let tbl = Domain.DLS.get cache_key in
    match Hashtbl.find_opt tbl source with
    | Some prog -> prog
    | None ->
        let prog = Parser.parse source in
        if Hashtbl.length tbl >= cache_limit then Hashtbl.reset tbl;
        Hashtbl.add tbl source prog;
        prog
  end

let run_exn ?(max_steps = 50_000_000) ?(cache = true) source =
  let prog = compile ~cache source in
  let env =
    {
      globals = Hashtbl.create 32;
      locals = None;
      steps = 0;
      max_steps;
      out = [];
      last = None_v;
    }
  in
  exec_block env prog;
  { stdout = List.rev env.out; result = env.last; steps = env.steps }

let run ?max_steps ?cache source =
  match run_exn ?max_steps ?cache source with
  | outcome -> Ok outcome
  | exception Runtime_error msg -> Error ("runtime error: " ^ msg)
  | exception Step_limit_exceeded -> Error "step limit exceeded"
  | exception Parser.Parse_error msg -> Error ("syntax error: " ^ msg)
  | exception Lexer.Lex_error (line, msg) ->
      Error (Printf.sprintf "syntax error: line %d: %s" line msg)
  | exception Return_exc _ -> Error "runtime error: 'return' outside function"
  | exception Break_exc -> Error "runtime error: 'break' outside loop"
  | exception Continue_exc ->
      Error "runtime error: 'continue' outside loop"
