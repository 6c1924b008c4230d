(** Recursive-descent parser with precedence climbing for expressions
    and the indentation-based block structure for statements. *)

exception Parse_error of string

val parse : string -> Ast.program
(** Raises {!Parse_error} or {!Lexer.Lex_error}. *)
