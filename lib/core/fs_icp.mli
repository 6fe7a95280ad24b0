(** Flow-sensitive interprocedural constant propagation (paper Figure 4) —
    the paper's contribution.  One forward topological traversal of the PCG
    interleaves the Wegman–Zadeck SCC analysis with interprocedural meets
    at call sites; back edges take the flow-insensitive solution; each
    procedure receives exactly one flow-sensitive analysis, recursion
    included.  On acyclic PCGs the result equals the iterative
    flow-sensitive fixpoint ({!Reference}).

    The traversal is executed as a dependency wavefront over the PCG's
    forward edges: procedures whose forward callers have all been analysed
    run concurrently on [jobs] domains, with entry meets pulled in
    canonical in-edge order at dispatch time, so the solution is identical
    for every [jobs]. *)

val method_name : string

(** [shard_regions pcg ~parts] partitions the dense procedure-id range
    [0, n) into at most [parts] contiguous regions, returned as an
    ascending boundary array [[|0; c1; ...; n|]] (region [r] is
    [[bounds.(r), bounds.(r+1))]).  No boundary ever falls strictly inside
    a back-edge id interval, so every SCC of the PCG condensation lies
    whole within one region; on heavily cyclic graphs fewer (larger)
    regions come back.  The wavefront, from scratch and incremental alike,
    assigns each region's nodes to domain [r mod jobs]
    ({!Fsicp_par.Par.wavefront});
    exposed for the region-invariant tests. *)
val shard_regions : Fsicp_callgraph.Callgraph.t -> parts:int -> int array

(** [solve ?jobs ?fi ?call_def_value ctx]:
    [jobs] bounds the worker domains for the wavefront traversal
    (default {!Fsicp_par.Par.default_jobs}; [1] is the sequential
    reference path, which every program under
    {!Fsicp_par.Par.cutoff} [Wavefront] procedures takes, and every value
    yields the same solution);
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
    wavefront: the edited procedures, every procedure whose SSA form is
    not the one [prev] was solved over, and the callee of every back edge
    whose flow-insensitive record changed.  [fi] is the fresh
    flow-insensitive solution; [prev] the previous flow-sensitive one.
    The seeds' forward-edge cone ({!Fsicp_callgraph.Callgraph.cone}) is
    driven through the wavefront, on one domain when the cone is under
    {!Fsicp_par.Par.cutoff} [Wavefront].  Early cutoff: a cone member is
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
