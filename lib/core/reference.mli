(** Reference iterative flow-sensitive interprocedural solver: whole-PCG
    flow-sensitive passes repeated to a fixpoint — the expensive solution
    the paper's one-pass method approximates.  Used as the test oracle for
    the acyclic-exactness and precision-ceiling properties.  A run whose
    pass budget (twice the program's entry slots plus two) runs out
    answers with the {!Fs_icp} solution and counts ["ref.fs_fallback"]. *)

val method_name : string
val solve : Context.t -> Solution.t
