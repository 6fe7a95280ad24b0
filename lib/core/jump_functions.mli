(** Jump-function interprocedural constant propagation — the baselines the
    paper compares against (Callahan–Cooper–Kennedy–Torczon '86;
    Grove–Torczon '93): a per-call-site summary of each argument as a
    function of the caller's formals, plus an optimistic propagation pass
    over the call graph.  Globals and return values are not propagated,
    matching the framework the paper measured against. *)

type variant =
  | Literal  (** literal actuals only *)
  | Intra  (** plus intraprocedurally-proven constant actuals *)
  | Pass_through  (** plus unmodified forwarded formals *)
  | Polynomial  (** plus polynomial functions of the caller's formals *)

val variant_name : variant -> string
val all_variants : variant list

(** Build and propagate to a fixpoint (cycles converge by monotone
    iteration, unlike the historical implementations). *)
val solve : Context.t -> variant -> Solution.t
