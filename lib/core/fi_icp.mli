(** Flow-insensitive interprocedural constant propagation (paper Figure 3):
    optimistic lattice over formals with the [fp_bind] pass-through relation
    and a lowering worklist for PCG cycles; block-data globals minus the
    program-wide MOD set.  No intraprocedural analysis is performed — this
    is the cheap sound method the flow-sensitive traversal substitutes on
    back edges. *)

val method_name : string

val solve : Context.t -> Solution.t

(** The pass compiled for one context: one op per call-site argument in
    forward traversal order, plus every part of the solution a
    shape-preserving edit cannot change (program constants, entry and
    call-record global lists).  Solving is compile + run. *)
type table

(** {!solve}, keeping the compiled table for {!update}. *)
val solve_table : Context.t -> table * Solution.t

(** [update t pid] re-solves after a shape-preserving edit of procedure
    [pid] whose new summary [t]'s context already holds
    ({!Context.replace_proc}): it patches the literal words of [pid]'s call
    sites and re-runs the pass in full, which keeps the paper's
    order-dependent pass-through rule exact.  Only the entries and call
    records whose values (or literal spellings) changed are rebuilt;
    everything else is shared with the previous solution.  Returns the new
    solution, identical to {!solve} of the edited context, and the PCG
    edge of every call record whose value changed. *)
val update :
  table -> Fsicp_prog.Prog.Proc.id -> Solution.t * Fsicp_callgraph.Callgraph.edge list
