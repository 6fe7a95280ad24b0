(** Reference {e iterative} flow-sensitive interprocedural solver.

    The paper's flow-sensitive method deliberately performs only one
    intraprocedural analysis per procedure, substituting the flow-
    insensitive solution on back edges.  This module implements the
    expensive alternative it approximates: iterate entire flow-sensitive
    passes over the PCG until the entry environments reach a fixpoint.

    Used as a test oracle:
    - on an acyclic PCG the first pass already is the fixpoint, and the
      result must coincide exactly with {!Fs_icp} (the paper: "when this
      ratio is zero ... the same results as a flow-sensitive iterative
      solution are achieved, without requiring iteration");
    - on cyclic PCGs it gives the precision ceiling — {!Fs_icp} must be
      sound w.r.t. the interpreter and below-or-equal this solution.

    Gauss–Seidel style: within a pass, forward edges see values recorded in
    the same pass; back edges see the previous pass's records (nothing, on
    the first pass — the optimistic ⊤ start).

    The passes are budgeted at twice the program's entry slots plus two.
    A run that exhausts the budget has not converged, and its last pass
    may claim constants a later pass would lower, so it answers with the
    {!Fs_icp} solution instead, which is sound. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_ipa
open Fsicp_scc

let method_name = "iterative-reference"

module Trace = Fsicp_trace.Trace

(* Solves whose pass budget ran out and that answered with FS instead. *)
let c_fallback = Trace.counter "ref.fs_fallback"

let solve (ctx : Context.t) : Solution.t =
  let pcg = ctx.Context.pcg in
  let db = pcg.Callgraph.db in
  let blockdata = Context.blockdata_env ctx in
  let gref_globals proc =
    Modref.call_global_refs ctx.Context.modref ~callee:proc
    |> List.map (fun (gv : Ir.var) -> gv.Ir.vid)
  in
  (* Records from the previous / current pass, by (caller id, cs_index) in
     dense per-caller rows; the last pass's rows are the solution's. *)
  let records : Solution.callsite_record option array Prog.Proc.Tbl.t =
    Prog.tbl_init db (fun pid ->
        Array.make (Callgraph.n_call_sites pcg pid) None)
  in
  let entries_tbl : Solution.proc_entry option Prog.Proc.Tbl.t =
    Prog.tbl db None
  in
  let scc_runs = ref 0 in
  let pass () =
    let any_change = ref false in
    Array.iter
      (fun pid ->
        let proc = Prog.proc_name db pid in
        (* Meet incoming recorded contributions. *)
        let s = Summary.find ctx.Context.summaries proc in
        let nf = List.length s.Summary.ps_formals in
        let formals = Array.make nf Lattice.Top in
        let globals = Hashtbl.create 8 in
        List.iter
          (fun g -> Hashtbl.replace globals g Lattice.Top)
          (gref_globals proc);
        if String.equal proc ctx.Context.prog.Ast.main then
          Hashtbl.iter
            (fun g _ ->
              Hashtbl.replace globals g
                (match List.assoc_opt g blockdata with
                | Some v -> v
                | None -> Lattice.Bot))
            (Hashtbl.copy globals);
        Array.iter
          (fun (e : Callgraph.edge) ->
            match
              (Prog.Proc.Tbl.get records e.Callgraph.caller).(e.Callgraph.cs_index)
            with
            | None -> () (* not yet recorded: optimistic, no contribution *)
            | Some
                { Solution.cr_executable; cr_args = args; cr_globals = gvals; _ }
              ->
                if cr_executable then begin
                  Array.iteri
                    (fun j v ->
                      if j < nf then formals.(j) <- Lattice.meet formals.(j) v)
                    args;
                  List.iter
                    (fun (g, v) ->
                      match Hashtbl.find_opt globals g with
                      | Some cur ->
                          Hashtbl.replace globals g (Lattice.meet cur v)
                      | None -> ())
                    gvals
                end)
          (Callgraph.in_edges pcg pid);
        let finalize = function Lattice.Top -> Lattice.Bot | v -> v in
        let pe_formals = Array.map finalize formals in
        let pe_globals =
          Hashtbl.fold (fun g v acc -> (g, finalize v) :: acc) globals []
          |> List.sort (fun (a, _) (b, _) -> Prog.Var.compare a b)
        in
        let old = Prog.Proc.Tbl.get entries_tbl pid in
        let entry = { Solution.pe_formals; pe_globals } in
        (match old with
        | Some o
          when Array.length o.Solution.pe_formals = Array.length pe_formals
               && Array.for_all2 Lattice.equal o.Solution.pe_formals pe_formals
               && List.equal
                    (fun (g, v) (g', v') ->
                      Prog.Var.equal g g' && Lattice.equal v v')
                    o.Solution.pe_globals pe_globals -> ()
        | Some _ | None ->
            any_change := true;
            Prog.Proc.Tbl.set entries_tbl pid (Some entry));
        (* Run SCC with this environment and record call-site values.  The
           oracle answers in packed words; this pass is the executable
           specification, so it just encodes its boxed entries at the
           boundary. *)
        let entry_env (v : Ir.var) =
          Lattice.P.of_t
          @@
          match v.Ir.vkind with
          | Ir.Formal i ->
              if i < Array.length pe_formals then pe_formals.(i)
              else Lattice.Bot
          | Ir.Global -> (
              match List.assoc_opt v.Ir.vid pe_globals with
              | Some value -> value
              | None ->
                  if String.equal proc ctx.Context.prog.Ast.main then
                    match List.assoc_opt v.Ir.vid blockdata with
                    | Some value -> value
                    | None -> Lattice.Bot
                  else Lattice.Bot)
          | Ir.Local | Ir.Temp -> Lattice.Bot
        in
        let ssa = Context.ssa_at ctx pid in
        let res = Scc.run ~config:{ Scc.default_config with entry_env } ssa in
        incr scc_runs;
        List.iter
          (fun (b, _, (c : Ssa.call)) ->
            let executable = res.Scc.block_executable.(b) in
            let args =
              Array.mapi
                (fun j _ ->
                  if executable then
                    Context.censor ctx (Scc.arg_value res c j)
                  else Lattice.Top)
                c.Ssa.c_args
            in
            let gvals =
              Array.to_list c.Ssa.c_global_uses
              |> List.map (fun ((g : Ir.var), (n : Ssa.name)) ->
                     ( g.Ir.vid,
                       if executable then
                         Context.censor ctx
                           (Lattice.P.to_t res.Scc.values.(n.Ssa.id))
                       else Lattice.Top ))
            in
            (Prog.Proc.Tbl.get records pid).(c.Ssa.c_cs_id) <-
              Some
                {
                  Solution.cr_caller = pid;
                  cr_cs_index = c.Ssa.c_cs_id;
                  cr_callee = Callgraph.proc_id_exn pcg c.Ssa.c_callee;
                  cr_executable = executable;
                  cr_args = args;
                  cr_globals = gvals;
                })
          (Ssa.call_sites ssa))
      (Callgraph.forward_order pcg);
    !any_change
  in
  let slots =
    Array.fold_left
      (fun k pid ->
        let proc = Prog.proc_name db pid in
        let s = Summary.find ctx.Context.summaries proc in
        k + List.length s.Summary.ps_formals + List.length (gref_globals proc))
      0 pcg.Callgraph.nodes
  in
  let budget = (2 * slots) + 2 in
  let rec converged passes =
    (not (pass ())) || (passes < budget && converged (passes + 1))
  in
  if not (converged 1) then begin
    Trace.incr c_fallback;
    { (Fs_icp.solve ctx) with Solution.method_name }
  end
  else begin
    let entries =
      Prog.Proc.Tbl.map
        (function Some e -> e | None -> Solution.empty_entry)
        entries_tbl
    in
    Solution.of_rows ~method_name ~db ~entries ~call_index:records
      ~scc_runs:!scc_runs
  end
