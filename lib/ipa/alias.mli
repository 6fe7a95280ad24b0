(** Interprocedural reference-parameter alias analysis (Figure 2 step 3):
    may-alias pairs among formals, and between formals and globals, seeded
    at call sites (same actual twice; global actuals) and propagated down
    call chains to a fixpoint.  MOD/REF closes over these pairs. *)

type proc_aliases

type t

val find : t -> string -> proc_aliases
val formals_may_alias : t -> string -> int -> int -> bool
val formal_global_may_alias : t -> string -> int -> string -> bool
val globals_aliasing_formal : t -> string -> int -> string list
val formals_aliasing_formal : t -> string -> int -> int list

(** Every alias pair of the procedure: [ff i j] for formals [i < j],
    [fg i g] for formal [i] and global [g]. *)
val iter_pairs :
  t -> string -> ff:(int -> int -> unit) -> fg:(int -> string -> unit) ->
  unit

val compute : Summary.t -> Fsicp_callgraph.Callgraph.t -> t
val pp : t Fmt.t
