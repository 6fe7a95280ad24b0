(** Lowering from the MiniFort AST to the quad IR: expression flattening
    into temporaries, structured control flow to explicit branches,
    call-site numbering in textual order, and pruning of blocks made
    unreachable by [return]. *)

open Fsicp_lang

(** Lower one procedure of a {!Sema.check}-clean program, resolving its
    names through the program's {!Sema.scope}: O(body). *)
val lower_in : Sema.scope -> Ast.proc -> Ir.proc

(** {!lower_in} under a scope built for this call: O(body + globals). *)
val lower_proc : Ast.program -> Ast.proc -> Ir.proc

(** Lower every procedure (in program order, reachable or not). *)
val lower_program : Ast.program -> Ir.proc list
