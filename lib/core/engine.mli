(** Long-lived analysis session with incremental re-analysis — the core of
    [fsicp serve].

    Holds the {!Context.t} and the current flow-insensitive and
    flow-sensitive solutions hot across procedure-body edits.  A
    shape-preserving edit (same procedures, same callee sequences, same
    IPA summary shape) invalidates only the edited procedure's artifacts
    and re-solves the flow-sensitive solution from seeds — the edited
    procedure and the back-edge callees whose flow-insensitive records
    changed — analysing again only the seeds and the procedures whose
    call-site inputs changed ({!Fs_icp.resolve}); a shape-changing edit
    rebuilds the context, carrying over the PCG and alias pairs when no
    call changed, and every procedure's summary, lowering, alias kills and
    SSA whose inputs did not change ({!Context.create}'s [prev]); when the
    PCG carried over, the compiled FI table carries over too and
    re-derives only what MOD/REF decides ({!Fi_icp.update}), and FS is
    re-solved from seeds the same way.
    In both cases {!solution} is identical to a from-scratch solve of the
    edited program, at any [jobs] — the differential oracle checks this
    byte-for-byte over random edit sequences. *)

open Fsicp_lang

type t

type outcome =
  | Incremental of { dirty : int; total : int }
      (** [dirty] procedures analysed again out of [total] reachable *)
  | Rebuilt of string  (** rebuilt context, with the reason *)

(** Build the context and solve both methods from scratch.
    @raise Sema.Illformed on an ill-formed program. *)
val create : ?floats:bool -> ?jobs:int -> Ast.program -> t

val context : t -> Context.t

(** The current flow-sensitive solution. *)
val solution : t -> Solution.t

(** The current flow-insensitive solution (the back-edge seed of the
    flow-sensitive one). *)
val fi_solution : t -> Solution.t

(** The copy-constant solution of the current program, for a serve read.
    On an acyclic PCG it is {!solution} under {!Cc_icp.method_name}: the
    two methods agree on every entry and call record there, and no solve
    runs.  Its [scc_runs] is then FS's, not CC's, so compare its entries
    and call records ({!Solution.values_digest}), never its
    {!Solution.digest}.  With a back edge it is {!Cc_icp.solve} of the
    current context. *)
val cc_solution : ?jobs:int -> t -> Solution.t

(** Session counters: [procs], [edits], [incremental_edits], [rebuilds],
    [edit_epoch]. *)
val stats : t -> (string * int) list

(** Replace procedure [p.pname]'s definition (or add a new procedure) and
    re-establish both solutions, incrementally when the edit preserves the
    program shape.
    @raise Sema.Illformed when the edited program fails {!Sema.check};
    engine state is untouched in that case. *)
val edit_proc : ?jobs:int -> t -> Ast.proc -> outcome

(** Apply several procedure edits atomically: the program with every edit
    substituted is checked before any edit is applied, and the outcomes
    come back in edit order.
    @raise Sema.Illformed when that program fails {!Sema.check}; engine
    state is untouched in that case. *)
val edit_procs : ?jobs:int -> t -> Ast.proc list -> outcome list
