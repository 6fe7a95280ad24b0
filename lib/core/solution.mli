(** The result shape shared by every interprocedural constant propagation
    method: per-procedure entry lattice values (formals and globals) and
    per-call-site argument/global values — the two things the paper's
    metrics count.

    Procedures are identified by the program database's dense
    {!Fsicp_prog.Prog.Proc.id}s; per-procedure state is stored in
    {!Prog.Proc.Tbl} arrays, and each call record is stored once, in
    its caller's row at its [cs_index], without any string hashing.  Ids come from the
    {!Fsicp_callgraph.Callgraph.t} the solution was computed over; ids from
    any other program database are out of contract. *)

open Fsicp_prog
open Fsicp_scc

type callsite_record = {
  cr_caller : Prog.Proc.id;
  cr_cs_index : int;
  cr_callee : Prog.Proc.id;
  cr_executable : bool;
      (** false when the method proved the site unreachable; such sites
          propagate nothing *)
  cr_args : Lattice.t array;
  cr_globals : (Prog.Var.id * Lattice.t) list;
      (** values at the site of the globals in the callee's REF closure *)
}

type proc_entry = {
  pe_formals : Lattice.t array;
  pe_globals : (Prog.Var.id * Lattice.t) list;
}

type t = {
  method_name : string;
  db : Prog.t;  (** the program database the ids below belong to *)
  entries : proc_entry Prog.Proc.Tbl.t;
  call_index : callsite_record option array Prog.Proc.Tbl.t;
      (** the call records, by caller id and [cs_index]; [None] where the
          method recorded no site.  The only store of call records *)
  scc_runs : int;
      (** flow-sensitive intraprocedural analyses performed — the paper's
          headline is exactly one per procedure for the FS method *)
}

(** Assemble a solution over rows the method filled: slot [k] of row [p]
    holds [None] or caller [p]'s record of site [k] (a row may be wider
    than its largest index).  Lets the FI and FS solvers' incremental
    updates share every unchanged row with the previous solution. *)
val of_rows :
  method_name:string ->
  db:Prog.t ->
  entries:proc_entry Prog.Proc.Tbl.t ->
  call_index:callsite_record option array Prog.Proc.Tbl.t ->
  scc_runs:int ->
  t

(** Assemble a solution from call records in any order, storing each at
    its [(caller, cs_index)] slot.
    @raise Invalid_argument on two records of one call site. *)
val make :
  method_name:string ->
  db:Prog.t ->
  entries:proc_entry Prog.Proc.Tbl.t ->
  call_records:callsite_record list ->
  scc_runs:int ->
  t

(** Every call record: callers in ascending id order, each caller's
    records in ascending [cs_index] order.  Built on each call. *)
val call_records : t -> callsite_record list

val empty_entry : proc_entry

val proc_name : t -> Prog.Proc.id -> string
val entry_at : t -> Prog.Proc.id -> proc_entry

(** Name-based lookups, for boundary code that still holds AST names
    (unreachable procedures resolve to {!empty_entry} / [None]). *)
val entry : t -> string -> proc_entry

val entry_opt : t -> string -> proc_entry option

(** Entry lattice value of the [i]-th formal of a procedure. *)
val formal_value : t -> string -> int -> Lattice.t

(** Entry lattice value of a global in a procedure ([Bot] if untracked). *)
val global_value : t -> string -> string -> Lattice.t

val constant_formals : t -> (string * int * Fsicp_lang.Value.t) list
val constant_globals : t -> (string * string * Fsicp_lang.Value.t) list

(** Do two records carry the same values?  Compares the executable flag,
    the arguments and the globals with {!Fsicp_scc.Lattice.equal}, which
    agrees with equality of the packed words the solvers read. *)
val record_equal : callsite_record -> callsite_record -> bool

(** The record of the caller's call site [cs_index]; [None] when the
    caller has no such site (a negative index included). *)
val find_call_record :
  t -> caller:Prog.Proc.id -> cs_index:int -> callsite_record option

(** Canonical full print — [scc_runs], entries and call records, the
    solution's whole content — keyed by names, never by context-minted
    ids, so digests of independent solves of the same program are
    comparable.  Byte-equality of digests is the definition of "identical
    solutions" used by the incremental-engine oracle and the serve daemon.
    The SSA the solution was computed over is not part of it; checks that
    SSA agrees compare [Oracle.ssa_digest] of the contexts instead. *)
val digest : t -> string

(** {!digest} without the [scc_runs] count: the method name, entries and
    call records.  The comparison for a solution whose run count is not
    its method's own ({!Engine.cc_solution} on an acyclic PCG). *)
val values_digest : t -> string

val pp : t Fmt.t
