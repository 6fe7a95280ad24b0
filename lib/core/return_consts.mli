(** The return-constants extension (paper §3.2): one additional reverse
    topological traversal with a second flow-sensitive analysis per
    procedure computes each procedure's exit summary — the constants it
    leaves in by-reference parameters and globals — which callers' call
    instructions then define instead of ⊥.  The second analysis is the
    kernel step {!Entry_vec.run}, seeded with the procedure's FS entry. *)

open Fsicp_cfg
open Fsicp_ssa
open Fsicp_scc

type summary = {
  rs_formals : Lattice.t array;  (** exit value per formal's location *)
  rs_globals : (Fsicp_prog.Prog.Var.id * Lattice.t) list;
}

type t = {
  summaries : (string, summary) Hashtbl.t;
  substitutions : int;
      (** Table 5's substitution count over the reverse traversal's runs,
          whose call effects the callee summaries refine *)
}

val summary_of : t -> string -> summary option

(** Run the reverse traversal on top of a forward FS solution; exactly one
    additional {!Entry_vec.run} per procedure, seeded with
    {!Entry_vec.of_entry} of its FS entry. *)
val compute : Context.t -> fs:Solution.t -> t

(** The summaries as a [Fs_icp.solve ~call_def_value] oracle (packed). *)
val as_oracle : t -> censor:(int -> int) -> Ssa.call -> Ir.var -> int
