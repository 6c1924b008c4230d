open Lexer

exception Parse_error of string

type state = { mutable tokens : token list }

let fail msg = raise (Parse_error msg)

let peek st = match st.tokens with [] -> EOF | t :: _ -> t

let advance st =
  match st.tokens with
  | [] -> fail "unexpected end of input"
  | t :: rest ->
      st.tokens <- rest;
      t

let expect st tok =
  let got = advance st in
  if got <> tok then
    fail
      (Printf.sprintf "expected %s, got %s" (token_to_string tok)
         (token_to_string got))

let accept st tok =
  if peek st = tok then begin
    ignore (advance st);
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Expressions, precedence climbing *)

let binop_of_op = function
  | "+" -> Some Ast.Add
  | "-" -> Some Ast.Sub
  | "*" -> Some Ast.Mul
  | "/" -> Some Ast.Div
  | "//" -> Some Ast.Floordiv
  | "%" -> Some Ast.Mod
  | "**" -> Some Ast.Pow
  | _ -> None

let cmpop_of_op = function
  | "<" -> Some Ast.Lt
  | "<=" -> Some Ast.Le
  | ">" -> Some Ast.Gt
  | ">=" -> Some Ast.Ge
  | "==" -> Some Ast.Eq
  | "!=" -> Some Ast.Ne
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if peek st = KEYWORD "or" then begin
    ignore (advance st);
    Ast.Or (left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_not st in
  if peek st = KEYWORD "and" then begin
    ignore (advance st);
    Ast.And (left, parse_and st)
  end
  else left

and parse_not st =
  if peek st = KEYWORD "not" then begin
    ignore (advance st);
    Ast.Not (parse_not st)
  end
  else parse_comparison st

and parse_comparison st =
  let left = parse_arith st in
  match peek st with
  | OP op when cmpop_of_op op <> None ->
      ignore (advance st);
      let right = parse_arith st in
      Ast.Compare (left, Option.get (cmpop_of_op op), right)
  | _ -> left

and parse_arith st =
  let rec loop left =
    match peek st with
    | OP (("+" | "-") as op) ->
        ignore (advance st);
        let right = parse_term st in
        loop (Ast.Binop (Option.get (binop_of_op op), left, right))
    | _ -> left
  in
  loop (parse_term st)

and parse_term st =
  let rec loop left =
    match peek st with
    | OP (("*" | "/" | "//" | "%") as op) ->
        ignore (advance st);
        let right = parse_factor st in
        loop (Ast.Binop (Option.get (binop_of_op op), left, right))
    | _ -> left
  in
  loop (parse_factor st)

and parse_factor st =
  match peek st with
  | OP "-" ->
      ignore (advance st);
      Ast.Neg (parse_factor st)
  | OP "+" ->
      ignore (advance st);
      parse_factor st
  | _ -> parse_power st

and parse_power st =
  let base = parse_postfix st in
  if peek st = OP "**" then begin
    ignore (advance st);
    (* Right-associative. *)
    Ast.Binop (Ast.Pow, base, parse_factor st)
  end
  else base

and parse_postfix st =
  let rec loop expr =
    match peek st with
    | OP "[" ->
        ignore (advance st);
        let index = parse_expr st in
        expect st (OP "]");
        loop (Ast.Index (expr, index))
    | OP "." -> (
        ignore (advance st);
        match advance st with
        | NAME meth ->
            expect st (OP "(");
            let args = parse_args st in
            loop (Ast.Method_call (expr, meth, args))
        | t -> fail ("expected method name, got " ^ token_to_string t))
    | _ -> expr
  in
  loop (parse_atom st)

and parse_args st =
  if accept st (OP ")") then []
  else begin
    let rec loop acc =
      let arg = parse_expr st in
      if accept st (OP ",") then loop (arg :: acc)
      else begin
        expect st (OP ")");
        List.rev (arg :: acc)
      end
    in
    loop []
  end

and parse_atom st =
  match advance st with
  | INT k -> Ast.Int_lit k
  | FLOAT f -> Ast.Float_lit f
  | STRING s -> Ast.Str_lit s
  | KEYWORD "True" -> Ast.Bool_lit true
  | KEYWORD "False" -> Ast.Bool_lit false
  | KEYWORD "None" -> Ast.None_lit
  | NAME name ->
      if accept st (OP "(") then Ast.Call (name, parse_args st)
      else Ast.Name name
  | OP "(" ->
      let e = parse_expr st in
      expect st (OP ")");
      e
  | OP "[" ->
      if accept st (OP "]") then Ast.List_lit []
      else begin
        let rec loop acc =
          let e = parse_expr st in
          if accept st (OP ",") then loop (e :: acc)
          else begin
            expect st (OP "]");
            List.rev (e :: acc)
          end
        in
        Ast.List_lit (loop [])
      end
  | t -> fail ("unexpected token " ^ token_to_string t)

(* ------------------------------------------------------------------ *)
(* Statements *)

let aug_of_op = function
  | "+=" -> Some Ast.Add
  | "-=" -> Some Ast.Sub
  | "*=" -> Some Ast.Mul
  | "/=" -> Some Ast.Div
  | _ -> None

let rec parse_block st =
  (* ':' NEWLINE INDENT stmt+ DEDENT *)
  expect st (OP ":");
  expect st NEWLINE;
  expect st INDENT;
  let rec loop acc =
    if accept st DEDENT then List.rev acc
    else loop (parse_stmt st :: acc)
  in
  loop []

and parse_stmt st =
  match peek st with
  | KEYWORD "pass" ->
      ignore (advance st);
      expect st NEWLINE;
      Ast.Pass
  | KEYWORD "break" ->
      ignore (advance st);
      expect st NEWLINE;
      Ast.Break
  | KEYWORD "continue" ->
      ignore (advance st);
      expect st NEWLINE;
      Ast.Continue
  | KEYWORD "return" ->
      ignore (advance st);
      if accept st NEWLINE then Ast.Return None
      else begin
        let e = parse_expr st in
        expect st NEWLINE;
        Ast.Return (Some e)
      end
  | KEYWORD "def" -> (
      ignore (advance st);
      match advance st with
      | NAME fname ->
          expect st (OP "(");
          let params =
            if accept st (OP ")") then []
            else begin
              let rec loop acc =
                match advance st with
                | NAME p ->
                    if accept st (OP ",") then loop (p :: acc)
                    else begin
                      expect st (OP ")");
                      List.rev (p :: acc)
                    end
                | t ->
                    fail ("expected parameter, got " ^ token_to_string t)
              in
              loop []
            end
          in
          Ast.Def (fname, params, parse_block st)
      | t -> fail ("expected function name, got " ^ token_to_string t))
  | KEYWORD "if" ->
      ignore (advance st);
      let cond = parse_expr st in
      let body = parse_block st in
      let rec elifs acc =
        if peek st = KEYWORD "elif" then begin
          ignore (advance st);
          let c = parse_expr st in
          let b = parse_block st in
          elifs ((c, b) :: acc)
        end
        else if peek st = KEYWORD "else" then begin
          ignore (advance st);
          (List.rev acc, parse_block st)
        end
        else (List.rev acc, [])
      in
      let branches, else_body = elifs [ (cond, body) ] in
      Ast.If (branches, else_body)
  | KEYWORD "while" ->
      ignore (advance st);
      let cond = parse_expr st in
      Ast.While (cond, parse_block st)
  | KEYWORD "for" -> (
      ignore (advance st);
      match advance st with
      | NAME var ->
          expect st (KEYWORD "in");
          let iter = parse_expr st in
          Ast.For (var, iter, parse_block st)
      | t -> fail ("expected loop variable, got " ^ token_to_string t))
  | _ ->
      (* Expression, assignment or augmented assignment. *)
      let e = parse_expr st in
      let stmt =
        match peek st with
        | OP "=" ->
            ignore (advance st);
            let value = parse_expr st in
            Ast.Assign (target_of_expr e, value)
        | OP op when aug_of_op op <> None ->
            ignore (advance st);
            let value = parse_expr st in
            Ast.Aug_assign (target_of_expr e, Option.get (aug_of_op op),
                            value)
        | _ -> Ast.Expr_stmt e
      in
      expect st NEWLINE;
      stmt

and target_of_expr = function
  | Ast.Name n -> Ast.Target_name n
  | Ast.Index (e, i) -> Ast.Target_index (e, i)
  | _ -> fail "invalid assignment target"

let parse source =
  let st = { tokens = Lexer.tokenize source } in
  let rec loop acc =
    match peek st with
    | EOF -> List.rev acc
    | NEWLINE ->
        ignore (advance st);
        loop acc
    | _ -> loop (parse_stmt st :: acc)
  in
  loop []
