(** The result shape shared by every interprocedural constant propagation
    method: per-procedure entry lattice values (formals and globals) and
    per-call-site argument/global values — the two things the paper's
    metrics count.

    Procedures are identified by the program database's dense
    {!Fsicp_prog.Prog.Proc.id}s; per-procedure state is stored in
    {!Prog.Proc.Tbl} arrays and call records are indexed by
    [(caller id, cs_index)] without any string hashing.  Ids come from the
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
  records : callsite_record list Prog.Proc.Tbl.t;
      (** each caller's call records, in the order the method recorded
          them; {!call_records} concatenates them *)
  call_index : callsite_record option array Prog.Proc.Tbl.t;
      (** records by caller id and [cs_index]; kept consistent with
          [records] by {!make} *)
  scc_runs : int;
      (** flow-sensitive intraprocedural analyses performed — the paper's
          headline is exactly one per procedure for the FS method *)
  scc_results : Scc.result option Prog.Proc.Tbl.t;
      (** per-procedure SCC runs, when the method performs them ([None]
          everywhere for flow-insensitive methods) *)
}

(** Assemble a solution from a caller-major record list (callers in
    ascending id order), splitting it by caller and building the dense
    [(caller, cs_index)] call-record index in the same pass. *)
val make :
  method_name:string ->
  db:Prog.t ->
  entries:proc_entry Prog.Proc.Tbl.t ->
  call_records:callsite_record list ->
  scc_runs:int ->
  scc_results:Scc.result option Prog.Proc.Tbl.t ->
  t

(** Assemble a solution over per-caller records and a call index the
    solver already built: row [p] of [call_index] must hold exactly
    caller [p]'s [records] at their [cs_index] (a row may be wider than
    its largest index).  Lets the FI and FS solvers' incremental updates
    share every unchanged row with the previous solution. *)
val of_index :
  method_name:string ->
  db:Prog.t ->
  entries:proc_entry Prog.Proc.Tbl.t ->
  records:callsite_record list Prog.Proc.Tbl.t ->
  call_index:callsite_record option array Prog.Proc.Tbl.t ->
  scc_runs:int ->
  scc_results:Scc.result option Prog.Proc.Tbl.t ->
  t

(** Every call record: callers in ascending id order, each caller's
    records in recorded order.  Built on each call. *)
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

(** The record of the caller's call site [cs_index]; [None] when the
    caller has no such site (a negative index included). *)
val find_call_record :
  t -> caller:Prog.Proc.id -> cs_index:int -> callsite_record option

(** Canonical full print — entries, call records, per-procedure SCC
    results, [scc_runs] — keyed by names, never by context-minted ids, so
    digests of independent solves of the same program are comparable.
    Byte-equality of digests is the definition of "identical solutions"
    used by the incremental-engine oracle and the serve daemon. *)
val digest : t -> string

val pp : t Fmt.t
