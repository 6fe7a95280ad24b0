(** Semi-pruned static single assignment form (Cytron et al.; Briggs et
    al.) over the quad IR — the representation the paper's
    intraprocedural SCC analysis runs on.

    Call instructions are definition points (by-reference actuals, modified
    globals), stores through possibly-aliased names are followed by
    {!instr.Kill} definitions, every variable has an implicit entry
    definition (version 0) whose value the interprocedural phase supplies,
    and each return block records the reaching version of every formal and
    global (for the return-constants extension).  φs go only to non-local
    variables: formals, globals, and locals or temporaries that some block
    reads before it defines them. *)

open Fsicp_lang
open Fsicp_cfg

(** An SSA name; [id] is a dense per-procedure index for O(1) lattice
    lookup. *)
type name = { base : Ir.var; ver : int; id : int }

type operand = Oconst of Value.t | Oname of name

val pp_operand : operand Fmt.t

type rhs =
  | Copy of operand
  | Unop of Ops.unop * operand
  | Binop of Ops.binop * operand * operand

val pp_rhs : rhs Fmt.t

type ssa_arg = { sa_operand : operand; sa_byref : Ir.var option }

type call = {
  c_cs_id : int;  (** call-site id, textual order *)
  c_callee : string;
  c_args : ssa_arg array;
  c_global_uses : (Ir.var * name) array;
      (** reaching version of each global the callee's REF closure needs *)
  c_defs : (Ir.var * name) array;
      (** fresh versions of the variables the call may modify *)
  c_guse_slots : int array;
      (** ascending var slots of the [c_global_uses] entries *)
  c_guse_ids : int array;  (** name ids parallel to [c_guse_slots] *)
  mutable c_def_base : int;
      (** index of this call's first def in the flat call-def numbering *)
}

type instr =
  | Assign of name * rhs
  | Kill of (Ir.var * name) array
      (** fresh unknown versions after a store through an alias *)
  | Call of call
  | Print of operand

type phi = {
  p_name : name;
  p_args : (int * name) array;
  p_edges : int array;  (** dense edge id per incoming edge, parallel *)
}

type terminator = Goto of int | Cond of operand * int * int | Ret

type block = { phis : phi array; instrs : instr array; term : terminator }

type use_site = Uphi of int * int | Uinstr of int * int | Uterm of int

(** Extension point for analysis-private per-procedure caches (e.g. the SCC
    entry-vector memo); lives and dies with the [proc] value. *)
type memo = ..

type memo += No_memo

type proc = {
  name : string;
  blocks : block array;
  entry : int;
  preds : int list array;
  dom : Dominance.t;
  entry_names : (Ir.var * name) array;  (** version-0 names, all variables *)
  n_names : int;
  use_offsets : int array;
      (** CSR row starts into [use_sites], length [n_names + 1] *)
  use_sites : int array;  (** CSR payload: dense site ids *)
  n_sites : int;  (** phis + instructions + terminators, densely numbered *)
  site_code : int array;  (** site id -> packed (tag, block, index) *)
  n_edges : int;
  edge_base : int array;
      (** block -> first out-edge id, length [nblocks + 1]; edges numbered
          consecutively in successor order, [Cond] with equal arms collapsed
          to one edge (mirroring [Ir.successors]) *)
  edge_dst : int array;  (** edge id -> destination block *)
  vars : Ir.var array;
      (** the variable universe, in slot order: ascending by
          [Ir.Var.compare] *)
  exit_ids : (int * int array) array;
      (** per [Ret] block: var slot -> reaching name id for the formals and
          globals, -1 for the rest *)
  calls : (int * int * call) array;
      (** every call as [(block, instr index, call)], block order *)
  n_call_defs : int;  (** total [c_defs] across [calls] *)
  mutable memo : memo;
}

(** Oracle for interprocedural side effects (the precision comes from
    plugging in {!Fsicp_ipa} results). *)
type call_effects = {
  defs_of_call : callee:string -> byref_args:Ir.var option array -> Ir.var list;
  globals_used_by : callee:string -> Ir.var list;
  assign_aliases : Ir.var -> Ir.var list;
}

val byref_array : Ir.arg array -> Ir.var option array

(** Build SSA for a lowered procedure.  Without [effects], the sound
    default when no IPA information is available: calls clobber every
    by-reference actual and every global; stores to formals/globals clobber
    all other formals and globals. *)
val of_proc : ?effects:call_effects -> Ast.program -> Ir.proc -> proc

(** The variable's dense slot in this procedure's universe, or -1. *)
val slot_of : proc -> Ir.var -> int

(** The use sites of a name id, decoded from its CSR row. *)
val uses_of : proc -> int -> use_site list

(** All call instructions as [(block, instr index, call)], block order. *)
val call_sites : proc -> (int * int * call) list

(** Structural invariants: single definitions, one phi argument per
    predecessor, and each definition dominating its uses. *)
val validate : proc -> (unit, string) result

val pp_proc : proc Fmt.t
