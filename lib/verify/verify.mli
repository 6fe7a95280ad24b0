(** Translation validation of the transformation pipeline (ROADMAP item 5).

    For every procedure a transformation modified, [vcs] builds a
    verification condition asserting observable equivalence of the original
    and transformed bodies — same print sequence, same fault behaviour, same
    call events, same final values of the by-reference formals and the
    globals — for all entry states satisfying the solution's entry
    precondition (formals/globals the solution proved constant take that
    constant; everything else is symbolic).

    The symbolic backend runs both bodies in lock-step over {!Term}s,
    splitting on undecided branches (bounded by [fuel]/[max_splits]),
    proving two loops of the same shape by induction instead of unrolling
    them (DESIGN.md "Loop induction"), and treating calls as uninterpreted
    functions: matching call events on the
    two sides must agree on callee (clone names match their base), argument
    shape and by-reference alias pattern; their argument values and
    referenced globals become proof obligations; the locations the callee
    may modify (per interprocedural MOD) are havocked with the {e same}
    fresh symbols on both sides — the modular assumption that an equivalent
    callee maps equal inputs to equal outputs, discharged by that callee's
    own VC.  Undischarged obligations or a stuck/fuel-bounded search yield
    [Inconclusive], never a false [Proved]; [Refuted] is only ever reported
    with a counterexample the concrete interpreter has confirmed.

    An inline VC is first tried by one linear walk that matches the
    transformed body against the original with each inlinable call
    replaced by a renamed-apart expansion (DESIGN.md "Inline VC by
    expansion match"); a match is [Proved] with 1 path, and anything else
    runs the product.

    The Z3 backend additionally discharges residual obligations through
    {!Smt}: answers are trusted only in the exact integer encoding (see
    DESIGN.md "Translation validation" for the caveats). *)

open Fsicp_lang
open Fsicp_core

type backend = Symbolic | Z3 of string  (** [Z3 cmd]: solver command *)

type counterexample = {
  cx_proc : string;
  cx_formals : (string * Value.t) list;
  cx_globals : (string * Value.t) list;
  cx_orig_prints : Value.t list;
  cx_trans_prints : Value.t list;
}

type verdict =
  | Proved
  | Refuted of counterexample
  | Inconclusive of string  (** reason *)

type vc = {
  vc_transform : string;
  vc_proc : string;  (** procedure name in the transformed program *)
  vc_counterpart : string;  (** its counterpart in the original *)
  vc_mode : Smt.mode;
  vc_paths : int;  (** completed symbolic paths *)
  vc_obligations : Smt.obligation list;
  vc_verdict : verdict;
}

(** The four pipeline transformations, in pipeline order:
    ["insert"; "fold"; "inline"; "clone"]. *)
val transform_names : string list

(** Apply one transformation by name.  @raise Invalid_argument otherwise. *)
val apply_transform : Context.t -> solution:Solution.t -> string -> Ast.program

(** Verification conditions for every procedure of [trans] that differs
    from its counterpart in [ctx]'s program.  Deterministic for a given
    (program, solution, transform) triple — independent of [jobs].
    [fuel] bounds total symbolic steps per VC (default 20_000);
    [max_splits] bounds path splits per VC (default 64). *)
val vcs :
  ?fuel:int ->
  ?max_splits:int ->
  ?backend:backend ->
  Context.t ->
  solution:Solution.t ->
  transform:string ->
  trans:Ast.program ->
  vc list

type report = { r_transform : string; r_vcs : vc list }

(** [vcs] over all four transformations. *)
val verify_program :
  ?fuel:int ->
  ?max_splits:int ->
  ?backend:backend ->
  Context.t ->
  solution:Solution.t ->
  report list

(** Differential testing of one procedure pair on concrete inputs drawn
    deterministically (seeded by the procedure names) and respecting the
    entry precondition: builds a harness main that sets every global and
    argument, calls the procedure, then prints arguments and globals, and
    runs it under the reference interpreter against both programs.  Returns
    a counterexample only when both runs complete with different print
    sequences (fault/timeout differences are discarded — conservative —
    and the transformed program runs only when the original completed). *)
val concrete_check :
  ?samples:int ->
  ?fuel:int ->
  orig:Ast.program ->
  trans:Ast.program ->
  proc:string ->
  counterpart:string ->
  entry:Solution.proc_entry option ->
  unit ->
  counterexample option

(** Deterministic SMT-LIB2 rendering of a VC (header comments carry
    transform, procedure, encoding, verdict and path count). *)
val render : vc -> string

val pp_verdict : verdict Fmt.t

(** One summary line: transform, proc, verdict, paths, obligations. *)
val pp_vc : vc Fmt.t
