(** Copy-constant interprocedural propagation: FS's kernel step
    ({!Entry_vec.run}) with packed {e copy words}
    ({!Fsicp_scc.Lattice.P.copy}) binding each unknown formal and
    REF-closure global to its own entry slot, inside a Gauss–Seidel
    fixpoint over the PCG.  Copies [x := y] thereby carry constants
    through call sites that the one-pass flow-sensitive method reaches too
    early; [fs ⊑ cc] in the oracle's precision order, and [cc = fs] on an
    acyclic PCG, on every entry and call record — which is why the serve
    engine answers a CC read there from its FS solution
    ({!Engine.cc_solution}) and calls {!solve} only with a back edge.  See
    the implementation header for the full story. *)

val method_name : string

(** The copy-constant solution.  The pass schedule is sequential and
    ignores [jobs], so the result is identical for every value.  A run
    whose pass budget (twice the program's entry slots plus two) runs out
    answers with the {!Fs_icp} solution and counts ["cc.fs_fallback"]. *)
val solve : ?jobs:int -> Context.t -> Solution.t
