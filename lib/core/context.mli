(** Shared analysis context: everything the interprocedural constant
    propagation methods consume, built once per program (paper Figure 2,
    steps 1–4): IPA summaries, the PCG, reference-parameter aliases,
    MOD/REF, lowered CFGs, and lazily-built SSA with IPA-backed call-effect
    oracles.

    Per-procedure state is stored in dense {!Fsicp_prog.Prog.Proc.Tbl}
    arrays indexed by the PCG's {!Prog.Proc.id}s.  Those ids are minted by
    [Callgraph.build] for {e this} program: never index one context's
    tables with ids taken from another context (see DESIGN.md, "Program
    database").

    [floats] mirrors the paper's optional floating-point propagation: with
    it off, real-valued constants are demoted to ⊥ at every interprocedural
    boundary while intraprocedural folding is unaffected. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ipa
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_scc

(** Raw alias lists of every formal or global a procedure directly
    assigns, as parallel arrays sorted by [Ir.Var.slot_key]; computed once
    per context and immutable afterwards, so SSA rebuilds on any number of
    domains share them without synchronisation. *)
type alias_kills = { ak_keys : int array; ak_lists : Ir.var list array }

(** Streaming-mode eviction state (opaque outside the context): a ring of
    retired procedure ids whose derived artifacts are released once the
    ring overflows its window. *)
type stream

type t = {
  mutable prog : Ast.program;  (** replaced only via {!set_program} *)
  pcg : Callgraph.t;
  mutable summaries : Summary.t;  (** replaced only via {!set_summaries} *)
  aliases : Alias.t;
  modref : Modref.t;
  floats : bool;
  lowered : Ir.proc option Prog.Proc.Tbl.t;
      (** reachable procedures only; [None] = not lowered yet (streaming)
          or already evicted *)
  alias_kills : alias_kills option Prog.Proc.Tbl.t;
  ssa_cache : Ssa.proc option Prog.Proc.Tbl.t;
  epochs : int Prog.Proc.Tbl.t;
      (** validity epoch of each procedure's derived artifacts; see
          {!invalidate_proc} *)
  mutable edit_epoch : int;
      (** the current epoch: 0 at {!create}, bumped per invalidation *)
  stream : stream option;  (** [Some _] iff built by {!create_streaming} *)
}

(** Build the context for a {!Sema.check}-clean program.  [jobs] bounds the
    domains used for per-procedure lowering (default
    {!Fsicp_par.Par.default_jobs}); the result is identical for every
    value.

    [prev], the context of an earlier version of the program, lets
    per-procedure artifacts with provably unchanged inputs carry over by
    procedure name; the whole-program phases run as without it, and every
    analysis result is identical either way.  Summaries and lowered IR
    carry over when the procedure's AST node and the program's globals
    list are physically [prev]'s.  An SSA form (with its SCC entry-vector
    memo) carries over when, in addition, the procedure's own MOD/REF
    closures, its callees' closures and its alias-kill table all equal
    [prev]'s.  Trace counters ["lower.reused"] and ["ssa.reused"] count
    the carried artifacts.  A streaming [prev] is ignored. *)
val create : ?floats:bool -> ?jobs:int -> ?prev:t -> Ast.program -> t

(** Streaming variant of {!create} for 10⁴–10⁶-procedure corpora: the
    whole-program analyses run up front (they are compact), but lowering,
    alias-kill tables and SSA materialise per procedure on first demand and
    are released again by {!retire}, keeping at most [window] (default 64)
    retired procedures plus the in-flight ones resident — peak heap scales
    with the wavefront frontier, not the program.  Solve-time mode only:
    the solutions are identical to the eager path's, but consumers that
    re-walk SSA after the solve (transformation, metrics, the returns
    extension) should use {!create}. *)
val create_streaming : ?floats:bool -> ?window:int -> Ast.program -> t

(** [true] iff the context was built by {!create_streaming}. *)
val is_streaming : t -> bool

(** Release the procedure's lowered IR, alias-kill table and SSA once the
    solver has fully consumed it.  No-op on non-streaming contexts; the
    actual eviction is deferred by the retirement ring (see
    {!create_streaming}).  Artifacts re-requested after eviction are
    rebuilt, identically. *)
val retire : t -> Prog.Proc.id -> unit

(** Lower every reachable procedure on [jobs] domains; {!Driver.run} uses
    it, and {!create} lowers through the same code, skipping procedures
    whose IR it carries over from [prev]. *)
val lower_all : jobs:int -> Ast.program -> Callgraph.t -> Ir.proc Prog.Proc.Tbl.t

(** Alias-kill tables for every reachable procedure (the [alias_kills]
    field); shared by {!create} and {!Driver.run}. *)
val compute_alias_kills :
  Alias.t -> Summary.t -> Callgraph.t -> Ir.proc Prog.Proc.Tbl.t ->
  alias_kills Prog.Proc.Tbl.t

val lowered_at : t -> Prog.Proc.id -> Ir.proc
val lowered_proc : t -> string -> Ir.proc

(** Per-procedure alias-kill table (built on demand in streaming mode). *)
val alias_kills_at : t -> Prog.Proc.id -> alias_kills

(** Per-procedure SSA side-effect oracle backed by the IPA results:
    call defs from MOD, recorded globals from REF, alias kills from the
    reference-parameter alias pairs. *)
val effects_for : t -> string -> Ssa.call_effects

(** SSA form of a reachable procedure (cached). *)
val ssa_at : t -> Prog.Proc.id -> Ssa.proc

val ssa : t -> string -> Ssa.proc

(** Pre-build the SSA form of every reachable procedure not yet cached, on
    [jobs] domains; afterwards {!ssa} is a read-only cache hit from any
    domain. *)
val build_ssa : ?jobs:int -> t -> unit

(** Drop every cached SSA form (benchmarks use this to measure cold SSA
    construction). *)
val reset_ssa_cache : t -> unit

(** Drop the SCC entry-vector memo of every cached SSA form, keeping the
    SSA: the next solve re-runs every kernel propagation (benchmarks use
    this to measure the solver core on warm SSA). *)
val reset_scc_memos : t -> unit

(** Swap in an edited program (and update the PCG's AST pointer).  In
    contract only for shape-preserving edits: same reachable procedures,
    same callee sequence per procedure, same summary shapes.  The
    incremental engine ({!Engine}) verifies this before calling and
    rebuilds the whole context otherwise. *)
val set_program : t -> Ast.program -> unit

(** Swap in refreshed IPA summaries (literal payloads may differ; shapes
    must match — see {!set_program}). *)
val set_summaries : t -> Summary.t -> unit

(** Invalidate one procedure's derived artifacts after a body edit: bump
    the context's edit epoch, re-lower the procedure from the current
    program, recompute its alias-kill table, drop its cached SSA (taking
    the SCC entry-vector memo with it), and stamp the procedure's epoch.
    Artifacts of every other procedure remain valid. *)
val invalidate_proc : t -> Prog.Proc.id -> unit

(** Epoch stamped on the procedure's artifacts by the last
    {!invalidate_proc} (0 = pristine since {!create}). *)
val epoch_of : t -> Prog.Proc.id -> int

(** The context's current edit epoch (0 at {!create}; bumped once per
    {!invalidate_proc}). *)
val current_epoch : t -> int

(** Demote real-valued constants to ⊥ when float propagation is off. *)
val censor : t -> Lattice.t -> Lattice.t

(** {!censor} on a packed lattice word ({!Fsicp_scc.Lattice.P}). *)
val censor_w : t -> int -> int

(** Block-data initial values, censored — the global constant seeds. *)
val blockdata_env : t -> (Prog.Var.id * Lattice.t) list

(** Is the global textually mentioned in the procedure?  (The VIS metric.) *)
val global_visible_in : t -> string -> string -> bool

(** Is the global directly read in the procedure?  (Table 2's counting
    rule: entry assignments are created only for referenced variables.) *)
val global_direct_ref : t -> string -> string -> bool
