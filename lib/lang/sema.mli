(** Semantic checks for MiniFort programs.  The analysis pipeline assumes
    [check]-clean input (calls resolve, arities match, no duplicate
    declarations). *)

type error = {
  msg : string;
  where : string;  (** procedure name, or ["<program>"] *)
  pos : Ast.pos;
}

val pp_error : error Fmt.t

exception Illformed of error list

(** Variable classification shared with lowering: formals shadow globals;
    anything else is a procedure-local. *)
type var_class = Formal of int | Global | Local

val classify :
  globals:string list -> formals:string list -> string -> var_class

(** Hashed variant of {!classify} for bulk per-procedure resolution: builds
    the lookup table once (O(globals + formals)) so each subsequent query is
    O(1).  Result-identical to {!classify} for every identifier. *)
val classifier :
  globals:string list -> formals:string list -> string -> var_class

val check : Ast.program -> (unit, error list) result

(** [check_proc ~find_proc p] — the errors {!check} reports for procedure
    [p]'s own formals and body, in the same order, given the program's
    procedure table ([find_proc name] is the first definition of [name]).
    {!check} is the program-level checks followed by [check_proc] of
    every procedure.  When [p] replaces a procedure of a [check]-clean
    program with the same formal count, [check_proc] of [p] is exactly
    [check]'s error list for the edited program. *)
val check_proc :
  find_proc:(string -> Ast.proc option) -> Ast.proc -> error list

(** @raise Illformed when [check] reports errors. *)
val check_exn : Ast.program -> unit

val errors_to_string : error list -> string
