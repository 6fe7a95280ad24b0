(** Sparse Conditional Constant propagation (Wegman & Zadeck, TOPLAS 1991)
    over SSA form — the paper's intraprocedural engine.

    The algorithm is optimistic: SSA names start at ⊤, CFG edges start
    non-executable, and two worklists (flow edges, SSA def–use edges) drive
    everything monotonically downward.  Conditional branches with constant
    conditions mark only one successor executable, discarding unreachable
    code during propagation.

    The hot path works on {e packed} lattice words ({!Lattice.P}): one
    immediate [int] per element, boxed {!Lattice.t} only at the
    [Solution.t]/print boundary.  The interprocedural methods plug in
    through {!config}: the entry environment supplies packed values for
    each variable's version-0 (procedure-entry) name, and the call oracle
    supplies post-call values of call-defined variables. *)

open Fsicp_cfg
open Fsicp_ssa

type config = {
  entry_env : Ir.var -> int;
      (** packed value of each variable at procedure entry; must be
          [Lattice.P.bot] or a constant word for soundness (top would
          claim dead code everywhere) *)
  call_def_value : callee:string -> Ir.var -> int;
      (** packed value of a variable a call may define, after the call
          returns ([Lattice.P.bot] unless a return-constants summary knows
          better) *)
}

(** Everything unknown: entry values ⊥, call effects ⊥. *)
val default_config : config

(** Entry environment from an association list; unlisted variables are
    unknown.  Values are pre-encoded, so each query is allocation-free. *)
val env_of_list : (Ir.var * Fsicp_lang.Value.t) list -> Ir.var -> int

type result = {
  proc : Ssa.proc;  (** the analysed SSA *)
  values : int array;  (** packed lattice word per SSA name id *)
  block_executable : bool array;
  edge_exec : Bytes.t;  (** bitset over the proc's dense edge ids *)
}

(** Run the analysis.  Terminates in O(names × height + edges).

    Flat kernel over packed words: CSR def–use walks, int-stack worklists
    with on-worklist dedup, one bit per dense edge id, scratch from a
    private epoch-stamped record per domain, closure-free
    transfer evaluation — no allocation in the steady state.  Both
    {!config} hooks are resolved once per run into dense packed vectors
    held in per-domain scratch, which also key a per-procedure memo:
    re-running with equal entry and call-def vectors returns the cached
    result without visiting any block (the ["scc.block_visits"] counter
    does not advance) and without copying the vectors.

    Work accounting goes to {!Fsicp_trace.Trace}: a ["scc:solve"] span per
    run (carrying the procedure name) and the monotonic counters
    ["scc.runs"], ["scc.memo_hits"], ["scc.memo_evictions"],
    ["scc.block_visits"], ["scc.site_visits"] (SSA worklist pops) and
    ["scc.edge_marks"] (flow worklist activations) — all deterministic for
    a given program. *)
val run : ?config:config -> Ssa.proc -> result

(** Drop every memoized entry-vector context of one procedure: the next
    {!run} re-propagates from scratch.  The per-procedure arm of
    [Context.reset_scc_memos], and the invalidation hook of the
    incremental engine (an edited procedure's memo dies with its SSA). *)
val invalidate_memo : Ssa.proc -> unit

(** Number of memoized entry-vector contexts the procedure holds (0 after
    {!invalidate_memo}; at most the internal capacity, currently 8). *)
val memo_size : Ssa.proc -> int

(** Is dense edge [e] of the result's procedure executable? *)
val edge_bit : result -> int -> bool

val operand_value : result -> Ssa.operand -> Lattice.t

(** Lattice value of the [j]-th argument of call [c]. *)
val arg_value : result -> Ssa.call -> int -> Lattice.t

val arg_value_w : result -> Ssa.call -> int -> int

(** Value of global [g] immediately before call [c], if recorded (i.e. [g]
    is in the callee's REF closure). *)
val global_at_call : result -> Ssa.call -> Ir.var -> Lattice.t option

(** The Grove–Torczon / Metzger–Stroud metric: textual uses of source-level
    variables proved constant in executable code (Table 5). *)
val substitution_count : result -> int

(** Value of variable [v] at procedure exit: the meet over executable
    return blocks of the reaching version's value; [Top] when the procedure
    cannot return.  Drives the return-constants extension. *)
val exit_value : result -> Ir.var -> Lattice.t
