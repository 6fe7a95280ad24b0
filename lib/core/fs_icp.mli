(** Flow-sensitive interprocedural constant propagation (paper Figure 4) —
    the paper's contribution.  One forward topological traversal of the PCG
    interleaves the Wegman–Zadeck SCC analysis with interprocedural meets
    at call sites; back edges take the flow-insensitive solution; each
    procedure receives exactly one flow-sensitive analysis, recursion
    included.  On acyclic PCGs the result equals the iterative
    flow-sensitive fixpoint ({!Reference}).

    The traversal is one in-order sweep over ascending procedure ids (the
    PCG's reverse postorder) on the calling domain, with each entry meet
    pulled from its forward callers' call records in canonical in-edge
    order; [jobs] only fans out the SSA pre-build, so the solution is
    identical for every [jobs]. *)

val method_name : string

(** [solve ?jobs ?fi ?call_def_value ctx]:
    [jobs] bounds the worker domains for the SSA pre-build, which runs
    only past {!Fsicp_par.Par.cutoff} procedures (default
    {!Fsicp_par.Par.default_jobs}; every value yields the same
    solution);
    [fi] overrides the flow-insensitive solution used for back edges
    (computed on demand only when the PCG has cycles, as in the paper);
    [call_def_value] refines post-call values of call-defined variables —
    the hook the return-constants extension uses; it answers in packed
    lattice words ({!Fsicp_scc.Lattice.P}). *)
val solve :
  ?jobs:int ->
  ?fi:Solution.t ->
  ?call_def_value:
    (caller:string -> Fsicp_ssa.Ssa.call -> Fsicp_cfg.Ir.var -> int) ->
  Context.t ->
  Solution.t

(** [resolve ?jobs ~fi ~prev ~seeds ctx] — incremental re-solve of an
    edited program whose PCG is [prev]'s ({!Engine} is the intended
    caller, after a shape-preserving edit and after a rebuild that kept
    the PCG).

    [seeds] are the procedures whose inputs changed outside the
    sweep: the edited procedures, every procedure whose SSA form is
    not the one [prev] was solved over, and the callee of every back edge
    whose flow-insensitive record changed.  [fi] is the fresh
    flow-insensitive solution; [prev] the previous flow-sensitive one.
    The seeds' forward-edge cone ({!Fsicp_callgraph.Callgraph.cone}) is
    swept in ascending id order.  Early cutoff: a cone member is
    analysed again only when it is a seed or when a forward in-edge record
    differs from [prev]'s (under {!Solution.record_equal}); an analysed
    procedure stores every record equal to [prev]'s as [prev]'s own, so
    the test is a physical comparison.  Cut-off members and procedures
    outside the cone keep [prev]'s entry, call records and SCC result.

    Returns a solution identical to a from-scratch {!solve} of the edited
    program, at any [jobs], and the number of procedures analysed.  The
    trace counters ["fs.resolve.dirty"] (cone size),
    ["fs.resolve.reused"] (outside it), ["fs.resolve.cutoff"] (cut off
    inside it) and ["scc.memo_hits"] show the saved work. *)
val resolve :
  ?jobs:int ->
  fi:Solution.t ->
  prev:Solution.t ->
  seeds:Fsicp_prog.Prog.Proc.id list ->
  Context.t ->
  Solution.t * int
