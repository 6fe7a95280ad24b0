(** Differential soundness oracle: every cross-method invariant the paper's
    precision hierarchy rests on, machine-checked per program.

    For one program the oracle checks

    - {b soundness}: every entry constant (formals {e and} globals) each of
      the six methods claims — the four jump-function baselines, FI-ICP and
      FS-ICP — plus the iterative reference and the two beyond-the-paper
      methods (copy-constant {!Cc_icp}, value-context {!Vc_icp}), equals
      the value the reference interpreter observes at every dynamic
      procedure entry; and every exit constant the return-constants
      extension claims holds at every dynamic procedure exit;
    - {b hierarchy}: the paper's Figure-1/Table-5 partial order
      (literal ⊑ intra ⊑ pass-through ⊑ polynomial ⊑ FS, FI ⊑ FS, FS ⊑
      iterative reference) extended with FS ⊑ CC and FS ⊑ VC, on formals
      {e and} globals — the two
      comparisons into FS only on procedures neither inside nor downstream
      of a PCG cycle (the forward cone of the back-edge callees), since
      there the jump-function methods' optimistic fixpoint can
      legitimately beat FS's pessimistic FI-based back-edge treatment; the
      acyclic region of a cyclic program is still checked;
    - {b observational equivalence}: the [Transform]/[Fold]/[Inline]/
      [Clone] outputs print the same values as the source program;
    - {b determinism}: [Fs_icp.solve] produces the identical solution under
      [jobs = 1] and [jobs = N].

    The oracle is the shared definition used by the test suites and by the
    [fsicp fuzz] harness; on a failure, {!Fsicp_oracle.Shrink} reduces the
    program to a minimal reproducer. *)

open Fsicp_lang
open Fsicp_core

(** One oracle violation: which check tripped, and a human-readable
    description of the first witness. *)
type failure = {
  f_check : string;  (** e.g. ["sound:poly"], ["hierarchy:fi⊑fs"] *)
  f_detail : string;
}

val pp_failure : failure Fmt.t

(** Interpreter budget used by every check (default [500_000]). *)
val default_fuel : int

(** [solution_le a b ~procs] — the paper's precision partial order on whole
    solutions: every formal {e and} every global entry value of [a] is ⊑
    the corresponding value of [b] (globals missing from an entry are ⊥).
    The single shared definition of the method-hierarchy order. *)
val solution_le : Solution.t -> Solution.t -> procs:string list -> bool

(** Like {!solution_le} but returns a description of the first violating
    (procedure, slot) instead of a bool. *)
val solution_le_witness :
  Solution.t -> Solution.t -> procs:string list -> string option

(** Names of the reachable procedures of a context, PCG order. *)
val reachable_procs : Context.t -> string list

(** The subset of {!reachable_procs} neither inside nor downstream of a
    PCG cycle — the complement of the forward cone seeded by the
    back-edge callees.  The hierarchy comparisons into FS ([poly ⊑ fs],
    [fi ⊑ fs]) are checked exactly on these procedures; on an acyclic
    program this is every reachable procedure. *)
val cycle_free_procs : Context.t -> string list

(** [check_solution_sound prog sol] executes [prog] (if it terminates
    within fuel and without runtime errors) and verifies that every formal
    and global the solution claims constant at a procedure entry has
    exactly that value at {e every} dynamic entry of the procedure. *)
val check_solution_sound :
  ?fuel:int -> Ast.program -> Solution.t -> (unit, string) result

(** [check_returns_sound prog rc] verifies the return-constants exit
    summaries against the interpreter's procedure-exit trace: every formal
    or global claimed constant at exit has exactly that value at {e every}
    dynamic exit of the procedure. *)
val check_returns_sound :
  ?fuel:int -> Ast.program -> Return_consts.t -> (unit, string) result

(** Run every oracle check on one {!Sema.check}-clean program.  [jobs] is
    the parallel arm of the determinism check (default
    {!Fsicp_par.Par.default_jobs}, at least 2). *)
val check_program :
  ?fuel:int -> ?jobs:int -> Ast.program -> (unit, failure) result

(** The generated program the fuzz harness checks for a seed
    ({!Fsicp_workloads.Generator.small_profile}). *)
val program_of_seed : int -> Ast.program

(** {!check_program} on {!program_of_seed}. *)
val check_seed : ?fuel:int -> ?jobs:int -> int -> (unit, failure) result

(** Translation validation of the four pipeline transformations
    ({!Fsicp_verify.Verify.verify_program} under the FS solution): fails
    with check ["vc:<transform>"] iff some VC is [Refuted] — i.e. the
    symbolic product evaluator found a divergence candidate {e and} the
    concrete interpreter confirmed a print-sequence counterexample.
    [Inconclusive] VCs (fuel, aliasing, residual obligations) are not
    failures.  [fuel] bounds the {e symbolic} engine, not the interpreter
    (default 20_000 steps per VC). *)
val check_transform_vc : ?fuel:int -> Ast.program -> (unit, failure) result

(** MD5 (hex) of every reachable procedure's SSA form
    ({!Fsicp_ssa.Ssa.pp_proc}), in procedure id order, building the forms
    the context lacks.  Two contexts of one program hold the same SSA iff
    their digests are equal: the checks that SSA agrees across [jobs],
    intern orders and edit routes compare this, since {!Solution.digest}
    covers only the solution. *)
val ssa_digest : Context.t -> string

(** One random procedure edit of [prog]: mostly shape-preserving literal
    tweaks / appended statements / no-ops, with an occasional
    shape-changing edit — an appended call site, or a [v = v;] store
    toggled at the head of the body for a global or formal outside the
    procedure's immediate MOD (an added store tweaks one literal of the
    body too, half the time).  The result always yields a [Sema]-clean
    program when substituted into [prog]. *)
val random_edit : Random.State.t -> Ast.program -> Ast.proc

(** [check_edit_sequence ?jobs ?edits seed] drives the same random edit
    sequence (default 5 edits) through two live incremental engines
    ([jobs = 1] and [jobs = N, N ≥ 2]) and, after every edit, checks both
    engines' flow-sensitive and flow-insensitive solutions are
    byte-identical ({!Solution.digest}) to a from-scratch solve of the
    current program, that both engines' contexts hold its SSA
    ({!ssa_digest}), that both engines' copy-constant answers
    ({!Engine.cc_solution}) equal a fresh {!Cc_icp.solve} — entries and
    call records ({!Solution.values_digest}) on an acyclic program, the
    whole {!Solution.digest} on a cyclic one, where the answer must be
    CC's own solve — and that both engines chose
    the same incremental-vs-rebuild route.  After the last edit the
    beyond-the-paper methods are checked on the final program too: cc and
    vc must be interpreter-sound and satisfy [fs ⊑ cc] / [fs ⊑ vc]. *)
val check_edit_sequence :
  ?jobs:int -> ?edits:int -> int -> (unit, failure) result

(** [write_reproducer ~dir ~name ~failure ?seed prog] pretty-prints [prog]
    into [dir/name.mf] with a comment header recording the failed check
    (creating [dir] if needed) and returns the path.  The file is valid
    MiniFort: the corpus-replay test re-parses and re-checks it. *)
val write_reproducer :
  dir:string ->
  name:string ->
  failure:failure ->
  ?seed:int ->
  Ast.program ->
  string
