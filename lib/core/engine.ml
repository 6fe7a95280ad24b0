(** Long-lived analysis session with incremental re-analysis — the core of
    [fsicp serve].

    The engine holds a {!Context.t} plus the current flow-insensitive and
    flow-sensitive solutions.  An {!edit_proc} replaces one procedure body
    and re-establishes both solutions, by one of two routes:

    - {b incremental} — when the edit preserves the program's {e shape}
      (same procedures, same callee sequence per procedure, same IPA
      summary shape for the edited procedure): only the edited procedure's
      artifacts are invalidated ({!Context.invalidate_proc}), the
      flow-insensitive solution is re-run in full (it is a tiny fraction
      of the flow-sensitive cost), and the flow-sensitive wavefront is
      re-driven over the downstream cone of the edit plus every callee of
      a back edge whose flow-insensitive record changed
      ({!Fs_icp.resolve}).  Everything outside the cone is reused, and
      cone members whose entry vectors are unchanged hit the SCC
      entry-vector memo.

    - {b rebuild} — when the shape changes (procedure added, call site
      added/removed/retargeted, formals or immediate MOD/REF changed): a
      fresh context is built and both solutions are solved over it.  The
      whole-program phases (PCG, aliasing, MOD/REF, FI, the FS wavefront)
      run as on a cold start, but the new context is built with the old
      one as [~prev] ({!Context.create}), so per-procedure artifacts whose
      inputs are unchanged carry over by name instead of being rebuilt:
      the summary and lowered IR of every procedure whose AST node and the
      globals list are physically the old ones, and the SSA form (with its
      SCC entry-vector memo) of every such procedure whose own MOD/REF
      closures, callees' closures and alias-kill table are also unchanged.
      A store added at one procedure's head typically leaves all but its
      ancestors' SSA in place.

    Either way the resulting {!solution} is identical to a from-scratch
    solve of the edited program at any [jobs] — the differential oracle
    ({!Fsicp_oracle.Oracle}) checks this byte-for-byte over random edit
    sequences. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_ipa
open Fsicp_callgraph
open Fsicp_scc

module Trace = Fsicp_trace.Trace

type t = {
  floats : bool;
  mutable ctx : Context.t;
  mutable fi : Solution.t;
  mutable fs : Solution.t;
  mutable edits : int;
  mutable incremental_edits : int;
  mutable rebuilds : int;
}

type outcome =
  | Incremental of { dirty : int; total : int }
      (** [dirty] procedures re-driven out of [total] reachable *)
  | Rebuilt of string  (** rebuilt context, with the reason *)

(* Context, FI and FS solutions of [prog]; [prev] is handed to
   {!Context.create} so that unchanged procedures keep their summaries,
   lowering and SSA.  One span per step, so a traced session splits a
   rebuild into IPA and lowering (inside {!Context.create}), SSA, FI and
   FS. *)
let solve_fresh ?jobs ?prev ~floats prog =
  let ctx = Context.create ~floats ?jobs ?prev prog in
  Trace.span "engine:ssa" (fun () -> Context.build_ssa ?jobs ctx);
  let fi = Fi_icp.solve ctx in
  let fs = Fs_icp.solve ?jobs ~fi ctx in
  (ctx, fi, fs)

let create ?(floats = true) ?jobs (prog : Ast.program) : t =
  Sema.check_exn prog;
  let ctx, fi, fs = solve_fresh ?jobs ~floats prog in
  { floats; ctx; fi; fs; edits = 0; incremental_edits = 0; rebuilds = 0 }

let context t = t.ctx
let solution t = t.fs
let fi_solution t = t.fi

let stats t : (string * int) list =
  [
    ("procs", Callgraph.n_procs t.ctx.Context.pcg);
    ("edits", t.edits);
    ("incremental_edits", t.incremental_edits);
    ("rebuilds", t.rebuilds);
    ("edit_epoch", Context.current_epoch t.ctx);
  ]

(* Argument shapes must match constructor-for-constructor, but two
   literals may carry different payloads: literal argument values feed
   only the flow-insensitive solve (re-run in full on every edit) and the
   flow-sensitive records of the dirty cone — never the alias or MOD/REF
   phases, which see only which positions are by-reference. *)
let args_shape_equal (a : Summary.arg_summary array)
    (b : Summary.arg_summary array) : bool =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      match (x, b.(i)) with
      | Summary.Alit _, Summary.Alit _ -> ()
      | x, y -> if x <> y then ok := false)
    a;
  !ok

(** Is the edited procedure's IPA summary shape-equal to its previous one?
    Shape equality is exactly the condition under which the PCG, the alias
    pairs and the MOD/REF closures of the {e whole program} are unchanged:
    those phases consume only formals, immediate MOD/REF sets and call
    shapes, never literal argument values. *)
let summary_shape_equal (a : Summary.proc_summary)
    (b : Summary.proc_summary) : bool =
  List.equal String.equal a.Summary.ps_formals b.Summary.ps_formals
  && Summary.VrefSet.equal a.Summary.ps_imod b.Summary.ps_imod
  && Summary.VrefSet.equal a.Summary.ps_iref b.Summary.ps_iref
  && List.equal
       (fun (x : Summary.call_summary) (y : Summary.call_summary) ->
         String.equal x.Summary.cs_callee y.Summary.cs_callee
         && x.Summary.cs_index = y.Summary.cs_index
         && args_shape_equal x.Summary.cs_args y.Summary.cs_args)
       a.Summary.ps_calls b.Summary.ps_calls

(* Value-level equality of two flow-insensitive call records.  Lattice
   values are compared with [Lattice.equal] (NaN-safe, unlike structural
   [=] on the floats inside [Value.Real]). *)
let record_equal (a : Solution.callsite_record option)
    (b : Solution.callsite_record option) : bool =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Bool.equal a.Solution.cr_executable b.Solution.cr_executable
      && Array.length a.Solution.cr_args = Array.length b.Solution.cr_args
      && Array.for_all2 Lattice.equal a.Solution.cr_args b.Solution.cr_args
      && List.equal
           (fun (g1, v1) (g2, v2) ->
             Prog.Var.compare g1 g2 = 0 && Lattice.equal v1 v2)
           a.Solution.cr_globals b.Solution.cr_globals
  | Some _, None | None, Some _ -> false

let rebuild ?jobs t prog reason : outcome =
  let ctx, fi, fs = solve_fresh ?jobs ~prev:t.ctx ~floats:t.floats prog in
  t.ctx <- ctx;
  t.fi <- fi;
  t.fs <- fs;
  t.rebuilds <- t.rebuilds + 1;
  Rebuilt reason

(** Replace procedure [p.pname]'s definition with [p] (or add it when no
    procedure of that name exists) and re-establish both solutions.
    @raise Sema.Illformed when the edited program fails {!Sema.check};
    the engine state is untouched in that case. *)
let edit_proc ?jobs t (p : Ast.proc) : outcome =
  Trace.span ~args:(fun () -> [ ("proc", p.Ast.pname) ]) "engine:edit"
  @@ fun () ->
  let old_prog = t.ctx.Context.prog in
  match Ast.find_proc old_prog p.Ast.pname with
  | None ->
      (* A new procedure changes the program shape outright. *)
      let prog = { old_prog with Ast.procs = old_prog.Ast.procs @ [ p ] } in
      Sema.check_exn prog;
      t.edits <- t.edits + 1;
      rebuild ?jobs t prog "new procedure"
  | Some _ -> (
      let prog =
        {
          old_prog with
          Ast.procs =
            List.map
              (fun q ->
                if String.equal q.Ast.pname p.Ast.pname then p else q)
              old_prog.Ast.procs;
        }
      in
      Sema.check_exn prog;
      t.edits <- t.edits + 1;
      match Callgraph.proc_id t.ctx.Context.pcg p.Ast.pname with
      | None ->
          (* Unreachable procedure: no analysis artifact depends on its
             body.  Record the new text and summary; both solutions
             stand. *)
          Context.set_program t.ctx prog;
          let table = Hashtbl.copy t.ctx.Context.summaries.Summary.table in
          Hashtbl.replace table p.Ast.pname (Summary.summarize_proc prog p);
          Context.set_summaries t.ctx { Summary.prog; table };
          t.incremental_edits <- t.incremental_edits + 1;
          Incremental
            { dirty = 0; total = Callgraph.n_procs t.ctx.Context.pcg }
      | Some pid ->
          (* Only the edited procedure's summary can change — summaries
             are per-body and the globals list is untouched by a
             procedure edit — so summarize just that procedure instead of
             re-collecting the whole program (which would dwarf the
             incremental re-solve itself on large programs). *)
          let old_s = Summary.find t.ctx.Context.summaries p.Ast.pname in
          let new_s = Summary.summarize_proc prog p in
          if not (summary_shape_equal old_s new_s) then
            rebuild ?jobs t prog "summary shape changed"
          else begin
            let summaries =
              let table =
                Hashtbl.copy t.ctx.Context.summaries.Summary.table
              in
              Hashtbl.replace table p.Ast.pname new_s;
              { Summary.prog; table }
            in
            let ctx = t.ctx in
            let pcg = ctx.Context.pcg in
            (* Shape preserved: swap program and summaries in place,
               invalidate only the edited procedure's artifacts. *)
            Context.set_program ctx prog;
            Context.set_summaries ctx summaries;
            Context.invalidate_proc ctx pid;
            (* The flow-insensitive solve is a fixed, tiny cost (no SSA,
               no SCC); re-running it in full keeps the back-edge seed
               exact and gives us the record diff below for free. *)
            let fi' = Fi_icp.solve ctx in
            (* Seeds: the edited procedure, plus the callee of every back
               edge whose flow-insensitive record changed — the only
               channel through which an edit reaches a procedure that is
               not downstream of it over forward edges. *)
            let seeds = ref [ pid ] in
            List.iter
              (fun (e : Callgraph.edge) ->
                if e.Callgraph.back then begin
                  let at s =
                    Solution.find_call_record s ~caller:e.Callgraph.caller
                      ~cs_index:e.Callgraph.cs_index
                  in
                  if not (record_equal (at t.fi) (at fi')) then
                    seeds := e.Callgraph.callee :: !seeds
                end)
              pcg.Callgraph.edges;
            let dirty = Callgraph.cone pcg ~seeds:!seeds in
            let fs' = Fs_icp.resolve ?jobs ~fi:fi' ~prev:t.fs ~dirty ctx in
            t.fi <- fi';
            t.fs <- fs';
            t.incremental_edits <- t.incremental_edits + 1;
            Incremental
              { dirty = Array.length dirty; total = Callgraph.n_procs pcg }
          end)
