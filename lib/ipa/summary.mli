(** Per-procedure IPA input summaries (the paper's collection phase,
    Figure 2 step 1): immediately modified/referenced formals and globals,
    and the argument shape at each call site. *)

open Fsicp_lang

type vref = Vformal of int | Vglobal of string

module Vref : sig
  type t = vref

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : t Fmt.t
end

module VrefSet : Set.S with type elt = vref

type arg_summary =
  | Alit of Value.t  (** immediate (literal) constant *)
  | Aformal of int  (** a bare formal of the caller *)
  | Aglobal of string
  | Alocal of string
  | Aexpr  (** any compound expression *)

type call_summary = {
  cs_callee : string;
  cs_args : arg_summary array;
  cs_index : int;
}

type proc_summary = {
  ps_name : string;
  ps_formals : string list;
  ps_imod : VrefSet.t;
  ps_iref : VrefSet.t;
  ps_calls : call_summary list;
}

type t = {
  prog : Ast.program;
  table : (string, proc_summary) Hashtbl.t;
}

(** The summary of one procedure, resolving its names through the
    program's {!Sema.scope}: O(body). *)
val summarize_in : Sema.scope -> Ast.proc -> proc_summary

(** {!summarize_in} under a scope built for this call: O(body + globals). *)
val summarize_proc : Ast.program -> Ast.proc -> proc_summary

(** Summaries of every procedure.  With [prev], a procedure whose AST node
    and the program's globals list are physically [prev]'s keeps [prev]'s
    summary instead of being summarized again. *)
val collect : ?prev:t -> Ast.program -> t

(** Call for call: the same callee at the same index with equal argument
    shapes, where any two literals match — the PCG, alias and MOD/REF
    phases never read literal values. *)
val calls_shape_equal : call_summary list -> call_summary list -> bool

val find : t -> string -> proc_summary
