(** Size-parametric synthetic corpora for scale-out validation.

    {!Generator} is calibrated against the paper's Table 1–5 shape at
    ~10²-procedure sizes; its read-planning and per-procedure bookkeeping
    are quadratic-ish in places that do not matter at that scale.  This
    module is the 10⁴–10⁶-procedure path: each family builds the
    {!Fsicp_lang.Ast.program} value directly — no source text is ever
    materialised — in O(procs) time and memory, with bounded per-procedure
    MOD/REF closures so every interprocedural phase stays near-linear.

    The families stress the axes the FS sweep and the streaming lowering
    care about:

    - {b Chain}: deep call chains (bounded segments fanned from main), a
      long critical path of constants that mutate at every hop — the
      flow-sensitive method tracks them, the flow-insensitive one cannot;
    - {b Fanout}: a wide B-ary call tree — many procedures per call depth;
    - {b Common}: COMMON-style global clusters initialised in block data,
      mostly read-only — global constants propagate everywhere;
    - {b Recursion}: many small mutually-recursive cliques — back edges,
      the flow-insensitive seed, and SCC entry-vector memos;
    - {b Mixed}: all four stitched under one main, sized by the PRNG.

    Generation is deterministic: the same {!spec} always yields the
    structurally identical program ({!Fsicp_lang.Ast.equal_program}), and
    a small-N equivalence test checks the direct path against
    pretty-print → parse round-tripping. *)

type family = Chain | Fanout | Common | Recursion | Mixed

val family_to_string : family -> string

(** Case-insensitive; [Error] names the valid spellings. *)
val family_of_string : string -> (family, string) result

val all_families : family list

type spec = {
  sp_family : family;
  sp_procs : int;  (** total procedures including [main]; >= 2 *)
  sp_seed : int;
}

(** Strict [--procs] validation, matching the [Par.parse_jobs] convention:
    trimmed decimal integer in [2, 2_000_000], everything else is a
    descriptive [Error]. *)
val parse_procs : string -> (int, string) result

(** Strict seed validation: any trimmed decimal integer. *)
val parse_seed : string -> (int, string) result

(** Generate the corpus.  The result is [Sema.check]-clean, every
    procedure is reachable from [main], and the value depends only on
    [spec].
    @raise Invalid_argument when [sp_procs < 2]. *)
val generate : spec -> Fsicp_lang.Ast.program

(** Corpus shape counters: procedure, call-site, global, block-data and
    back-edge-free statistics, cheap to compute (one AST sweep). *)
val stats : Fsicp_lang.Ast.program -> (string * int) list

(** Hex digest of the canonical pretty-printed text — the cross-process
    identity of a generated corpus ([fsicp gen --stats-only] prints it). *)
val digest : Fsicp_lang.Ast.program -> string
