(** Flow-insensitive interprocedural constant propagation (paper Figure 3):
    optimistic lattice over formals with the [fp_bind] pass-through relation
    and a lowering worklist for PCG cycles; block-data globals minus the
    program-wide MOD set.  No intraprocedural analysis is performed — this
    is the cheap sound method the flow-sensitive traversal substitutes on
    back edges.  The serve engine keeps it current across edits with
    {!update}, which re-derives only what an edit can change. *)

val method_name : string

val solve : Context.t -> Solution.t

(** The pass compiled for one PCG: one op per call-site argument in
    forward traversal order, with every part of the solution an edit that
    keeps the PCG leaves in place (slot, site and op layout).  Solving is
    compile + run. *)
type table

(** {!solve}, keeping the compiled table for {!update}. *)
val solve_table : Context.t -> table * Solution.t

(** [update ?ctx t edited] re-solves after edits of the procedures
    [edited] that keep the PCG — the one FI re-solve of both edit routes.
    Without [ctx] the edits were shape-preserving and [t]'s context
    already holds their summaries ({!Context.replace_proc}).  With [ctx],
    a context rebuilt over [t]'s PCG ({!Context.create}'s [prev]), [t]
    moves to it and re-derives what MOD/REF decides: which formal
    pass-throughs may pass, the program constants with their [Aglobal]
    words, and the REF-closure global lists.  Either way the edited
    procedures' literal words are patched and the pass re-runs in full,
    which keeps the paper's order-dependent pass-through rule exact.  Only
    the entries and call records whose values (or literal spellings)
    changed are rebuilt; everything else is shared with the previous
    solution.  Returns the new solution, identical to {!solve} of the
    current context, and the PCG edge of every call record whose value
    changed. *)
val update :
  ?ctx:Context.t ->
  table ->
  Fsicp_prog.Prog.Proc.id list ->
  Solution.t * Fsicp_callgraph.Callgraph.edge list
