(** Goal-directed procedure cloning (Metzger–Stroud; the paper's backward
    walk hook): group call sites by the constant-argument signature the FS
    solution records, clone the callee per group, retarget the sites — a
    subsequent ICP run then sees per-group constant formals. *)

open Fsicp_lang

(** Returns the cloned program and the number of clones created; the result
    is {!Sema.check}-clean whenever the input was. *)
val clone_by_constants :
  Context.t -> fs:Solution.t -> ?max_clones_per_proc:int -> unit ->
  Ast.program * int
