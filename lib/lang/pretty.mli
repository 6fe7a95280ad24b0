(** Pretty-printer for MiniFort.  Output is valid concrete syntax:
    reparsing a printed program yields a structurally equal AST (up to
    positions and global-declaration order), a property the test suite
    checks. *)

val expr_to_string : Ast.expr -> string
val stmt_to_string : Ast.stmt -> string
val proc_to_string : Ast.proc -> string
val program_to_string : Ast.program -> string

(** {!program_to_string}, as a formatter for the command line. *)
val pp_program : Ast.program Fmt.t
