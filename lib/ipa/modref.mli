(** Interprocedural MOD and REF (Figure 2 step 4): Cooper–Kennedy-style
    flow-insensitive fixpoint binding callee sets through call-site
    argument lists, closed under reference-parameter aliases.  Sets are
    dense bitsets (globals first, then formals), solved once per PCG
    strongly connected component, callees first. *)

open Summary

type t

val compute : Summary.t -> Alias.t -> Fsicp_callgraph.Callgraph.t -> t

(** The sets as [VrefSet]s, built on demand (empty for a procedure the
    PCG does not reach). *)
val gmod_of : t -> string -> VrefSet.t

val gref_of : t -> string -> VrefSet.t

(** Apply the function to each global in the procedure's MOD set, in
    ascending bit order, which is the program's globals order (nothing for
    a procedure the PCG does not reach).  Costs the set's width in words
    plus its global members, not the number of globals. *)
val iter_mod_globals : t -> string -> (string -> unit) -> unit

(** {2 The bit numbering}

    A set is [width t] words of [word_bits] bits each: bit [b] below
    [n_globals t] is global [global_name t b], the [b]-th of the program's
    globals, and bit [n_globals t + i] is formal [i]. *)

val word_bits : int
val width : t -> int
val n_globals : t -> int
val global_name : t -> int -> string

(** Word [w] of the procedure's REF set. *)
val gref_word : t -> Fsicp_prog.Prog.Proc.id -> int -> int

(** The set held by the array's [width t] words from the index on. *)
val to_vrefs : t -> int array -> int -> VrefSet.t

(** Do both results number the globals alike (the same globals list)? *)
val same_numbering : t -> t -> bool

(** Do both results give the procedure the same MOD and the same REF set?
    A procedure one of them does not reach has empty sets there.  Only
    meaningful under {!same_numbering}, which it does not check. *)
val closures_equal : t -> t -> string -> bool

(** May the procedure (or anything it calls) modify its [i]-th formal's
    location? *)
val formal_modified : t -> string -> int -> bool

(** {!formal_modified} of a procedure the PCG reaches, by id. *)
val formal_modified_at : t -> Fsicp_prog.Prog.Proc.id -> int -> bool

val global_modified_in : t -> string -> string -> bool
val global_referenced_in : t -> string -> string -> bool

(** Globals modified anywhere reachable from [main] — the ones Figure 3's
    flow-insensitive method removes from the block-data candidates —
    descending by name. *)
val globals_modified_anywhere : t -> main:string -> string list

(** SSA oracle: variables (caller-side) a call may define, given the
    by-reference actuals in argument order. *)
val call_defs :
  t -> callee:string -> byref_args:Fsicp_cfg.Ir.var option array ->
  Fsicp_cfg.Ir.var list

(** Globals whose value at a call to [callee] the FS method records,
    descending by name. *)
val call_global_refs : t -> callee:string -> Fsicp_cfg.Ir.var list

(** {!call_global_refs} of a procedure the PCG reaches, by id. *)
val call_global_refs_at : t -> Fsicp_prog.Prog.Proc.id -> Fsicp_cfg.Ir.var list

val pp : t Fmt.t
