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

val pp_arg_summary : arg_summary Fmt.t

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

val classify_arg :
  globals:string list -> formals:string list -> Ast.expr -> arg_summary

val summarize_proc : Ast.program -> Ast.proc -> proc_summary

(** Summaries of every procedure.  With [prev], a procedure whose AST node
    and the program's globals list are physically [prev]'s keeps [prev]'s
    summary instead of being summarized again. *)
val collect : ?prev:t -> Ast.program -> t

val find : t -> string -> proc_summary
