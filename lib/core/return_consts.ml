(** The return-constants extension (paper §3.2).

    MiniFort procedures are Fortran-style subroutines: "returned constants"
    are the constant {e out}-values a completed call leaves behind — in the
    by-reference actuals whose formals the callee (always) sets to the same
    constant, and in the globals it (always) sets to the same constant.

    The paper: "Returned constants can be accommodated by extending our
    flow-sensitive method to include one additional topological traversal
    of the PCG which is performed in the reverse direction.  During this
    traversal, a second flow-sensitive intraprocedural analysis of each
    procedure is performed to identify the procedure's set of returned
    constant parameters and global variables that are propagated to the
    invoking call site.  A flow-insensitive solution can be precomputed and
    used for back edges in this traversal."

    The reverse traversal visits callees before callers, so when a caller
    is re-analysed the summaries of its (forward-edge) callees are already
    available and its call instructions define constants instead of ⊥.
    Back-edge callees conservatively summarise to ⊥.  Each re-analysis is
    the kernel step FS takes ({!Entry_vec.run}), seeded with the FS entry
    ({!Entry_vec.of_entry}) and given the summaries as its call effects;
    only the exit summaries and the summed substitution count are kept.

    Matching the paper's measurements ("these results do not include the
    propagation of return constants, since the implementation of this
    feature has not yet been completed"), the table harness keeps this off;
    the RETURNS ablation ([fsicp tables --table returns]) turns it on. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_ipa
open Fsicp_scc

(** Per-procedure exit summary: the value each formal's location and each
    global holds when the procedure returns. *)
type summary = {
  rs_formals : Lattice.t array;
  rs_globals : (Prog.Var.id * Lattice.t) list;
}

type t = {
  summaries : (string, summary) Hashtbl.t;
  substitutions : int;
      (** Table 5's substitution count summed over the reverse traversal's
          runs, whose call effects the callee summaries refine *)
}

let summary_of t proc = Hashtbl.find_opt t.summaries proc

module P = Lattice.P

(** The post-call value (a packed lattice word) of caller-side variable [v]
    for call [c], given the callee's exit summary: meet over every channel
    through which the callee may have written [v]'s location (each
    by-reference argument position binding [v], and [v] itself when it is a
    global).  The summaries stay boxed — they are a user-facing artifact
    the differential oracle inspects — and are encoded here, at the Scc
    config boundary. *)
let call_def_value_from (summaries : (string, summary) Hashtbl.t)
    ~(censor : int -> int) (c : Ssa.call) (v : Ir.var) : int =
  match Hashtbl.find_opt summaries c.Ssa.c_callee with
  | None -> P.bot (* back edge or unknown callee *)
  | Some s ->
      let acc = ref P.top in
      Array.iteri
        (fun j (a : Ssa.ssa_arg) ->
          match a.Ssa.sa_byref with
          | Some w when Ir.Var.equal w v ->
              if j < Array.length s.rs_formals then
                acc := P.meet !acc (P.of_t s.rs_formals.(j))
          | Some _ | None -> ())
        c.Ssa.c_args;
      (match v.Ir.vkind with
      | Ir.Global -> (
          match List.assoc_opt v.Ir.vid s.rs_globals with
          | Some gv -> acc := P.meet !acc (P.of_t gv)
          | None -> acc := P.bot)
      | Ir.Formal _ | Ir.Local | Ir.Temp -> ());
      if !acc = P.top then
        (* No channel found: the MOD oracle said the call may define [v]
           but the summary does not cover it — stay conservative. *)
        P.bot
      else censor !acc

(** Run the reverse traversal on top of a forward flow-sensitive solution:
    one more {!Entry_vec.run} per procedure, seeded with its FS entry and
    with call effects from the summaries of the callees already visited. *)
let compute (ctx : Context.t) ~(fs : Solution.t) : t =
  let pcg = ctx.Context.pcg in
  let roots = Entry_vec.roots ctx in
  let censor = Context.censor_w ctx in
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 16 in
  let substitutions = ref 0 in
  Array.iter
    (fun pid ->
      let proc = Callgraph.proc_name pcg pid in
      let sh = Entry_vec.shape ctx proc in
      let entry = Entry_vec.of_entry roots sh pid (Solution.entry_at fs pid) in
      let res, _ =
        Entry_vec.run ctx roots sh pid
          ~call_def_value:(call_def_value_from summaries ~censor)
          (Array.get entry)
      in
      substitutions := !substitutions + Scc.substitution_count res;
      (* Exit summary of this procedure. *)
      let s = Summary.find ctx.Context.summaries proc in
      let formals = s.Summary.ps_formals in
      let rs_formals =
        Array.of_list
          (List.mapi
             (fun i name ->
               Context.censor ctx (Scc.exit_value res (Ir.formal name i)))
             formals)
      in
      let rs_globals =
        List.map
          (fun g ->
            let gv = Ir.global g in
            (gv.Ir.vid, Context.censor ctx (Scc.exit_value res gv)))
          ctx.Context.prog.Ast.globals
      in
      Hashtbl.replace summaries proc { rs_formals; rs_globals })
    (Callgraph.reverse_order pcg);
  { summaries; substitutions = !substitutions }

(** Exit summaries mapped onto a [Fs_icp.solve ~call_def_value] oracle, for
    running a refined forward pass on top of the reverse traversal. *)
let as_oracle (t : t) ~(censor : int -> int) : Ssa.call -> Ir.var -> int =
  call_def_value_from t.summaries ~censor
