(** Transformation phase (paper Figure 2 step 6): materialise
    interprocedural constants as procedure-entry assignments (only for
    referenced variables, as in the paper), and compute the Table 5
    substitution metric by running the final intraprocedural pass with each
    method's entry constants. *)

open Fsicp_lang

(** Semantically equivalent program with [x = c;] prologues for every
    constant, referenced formal/global. *)
val insert_entry_constants : Context.t -> Solution.t -> Ast.program

(** Per-procedure and total constant-use substitution counts under the
    solution's entry environment: one {!Entry_vec.run} per reachable
    procedure, seeded with {!Entry_vec.of_entry} of its entry. *)
val substitutions : Context.t -> Solution.t -> (string * int) list * int
