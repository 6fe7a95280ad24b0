(** Jump-function interprocedural constant propagation — the baselines the
    paper compares against (Callahan–Cooper–Kennedy–Torczon '86;
    Grove–Torczon '93): a per-call-site summary of each argument as a
    function of the caller's formals, plus an optimistic propagation pass
    over the call graph.  Globals and return values are not propagated,
    matching the framework the paper measured against. *)

open Fsicp_lang
open Fsicp_prog

type variant =
  | Literal  (** literal actuals only *)
  | Intra  (** plus intraprocedurally-proven constant actuals *)
  | Pass_through  (** plus unmodified forwarded formals *)
  | Polynomial  (** plus polynomial functions of the caller's formals *)

val variant_name : variant -> string
val all_variants : variant list

type jf =
  | Jconst of Value.t
  | Jformal of int
  | Jpoly of Poly.t
  | Jbot

type site_jfs = {
  sj_caller : Prog.Proc.id;
  sj_cs_index : int;
  sj_callee : Prog.Proc.id;
  sj_live : bool;  (** false when the intra analysis proved the site dead *)
  sj_jfs : jf array;
}

(** Jump functions for every call site, plus the number of flow-sensitive
    intraprocedural analyses used to build them. *)
val build_jump_functions : Context.t -> variant -> site_jfs list * int

(** Evaluate a jump function under the caller's current formal values,
    given and answered as packed lattice words ({!Fsicp_scc.Lattice.P}). *)
val eval_jf : Context.t -> jf -> int array -> int

(** Build and propagate to a fixpoint (cycles converge by monotone
    iteration, unlike the historical implementations). *)
val solve : Context.t -> variant -> Solution.t
