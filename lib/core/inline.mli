(** Procedure inlining (the paper's other backward-walk transformation).
    By-reference actuals substitute textually for formals; other actuals
    bind fresh initialised temporaries; callee locals are renamed apart and
    re-zeroed per entry.  Procedures containing [return], recursive
    procedures, and bodies above [max_body] statements are left alone. *)

open Fsicp_lang

val inlinable : Context.t -> max_body:int -> Ast.proc -> bool

(** Inline every eligible call site (one level); returns the new program
    and the number of calls expanded.  Semantics-preserving
    (property-tested). *)
val inline_program : Context.t -> ?max_body:int -> unit -> Ast.program * int
