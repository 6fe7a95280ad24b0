(** Long-lived analysis session with incremental re-analysis — the core of
    [fsicp serve].

    The engine holds a {!Context.t} plus the current flow-insensitive and
    flow-sensitive solutions.  An {!edit_proc} replaces one procedure body
    and re-establishes both solutions, by one of two routes:

    - {b incremental} — when the edit preserves the program's {e shape}
      (same procedures, same callee sequence per procedure, same IPA
      summary shape for the edited procedure): the edit is Sema-checked
      against the current procedure table alone ({!Sema.check_proc}),
      only the edited procedure's summary and artifacts are replaced
      ({!Context.replace_proc}, {!Context.invalidate_proc}), the
      flow-insensitive pass re-runs over the table compiled for this
      context with the edited procedure's literal words patched
      ({!Fi_icp.update}: still a whole-program pass, but one flat loop
      over the call-site arguments), and the flow-sensitive wavefront is
      re-driven over the downstream cone of the edit plus every callee of
      a back edge whose flow-insensitive record changed
      ({!Fs_icp.resolve}).  Everything outside the cone is reused, and
      cone members whose entry vectors are unchanged hit the SCC
      entry-vector memo.  A traced edit
      records one span per step: [engine:sema], [engine:summary],
      [engine:invalidate], [fi:update], [engine:seeds], [fs:resolve].

    - {b rebuild} — when the shape changes (procedure added, call site
      added/removed/retargeted, formals or immediate MOD/REF changed): a
      fresh context is built and both solutions are solved over it.
      MOD/REF, FI and the FS wavefront run as on a cold start, but the new
      context is built with the old one as [~prev] ({!Context.create}),
      so whatever provably did not change carries over instead of being
      rebuilt: the PCG and the alias pairs when no call changed (same
      procedures, and every re-summarized procedure keeps its formals,
      callees and argument shapes); by name, the summary and lowered IR of
      every procedure whose AST node and the globals list are physically
      the old ones, and the SSA form (with its SCC entry-vector memo) of
      every such procedure whose own MOD/REF closures, callees' closures
      and alias-kill table are also unchanged.  A store added at one
      procedure's head keeps the PCG and aliases and leaves all but its
      ancestors' SSA in place.

    Either way the resulting {!solution} is identical to a from-scratch
    solve of the edited program at any [jobs] — the differential oracle
    ({!Fsicp_oracle.Oracle}) checks this byte-for-byte over random edit
    sequences. *)

open Fsicp_lang
open Fsicp_ipa
open Fsicp_callgraph

module Trace = Fsicp_trace.Trace

type t = {
  floats : bool;
  mutable ctx : Context.t;
  mutable fi_table : Fi_icp.table;
      (** the FI pass compiled for [ctx]; every rebuild recompiles it *)
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
  let fi_table, fi = Fi_icp.solve_table ctx in
  let fs = Fs_icp.solve ?jobs ~fi ctx in
  (ctx, fi_table, fi, fs)

let create ?(floats = true) ?jobs (prog : Ast.program) : t =
  Sema.check_exn prog;
  let ctx, fi_table, fi, fs = solve_fresh ?jobs ~floats prog in
  { floats; ctx; fi_table; fi; fs; edits = 0; incremental_edits = 0;
    rebuilds = 0 }

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
  && Summary.calls_shape_equal a.Summary.ps_calls b.Summary.ps_calls

let rebuild ?jobs t prog reason : outcome =
  let ctx, fi_table, fi, fs =
    solve_fresh ?jobs ~prev:t.ctx ~floats:t.floats prog
  in
  t.ctx <- ctx;
  t.fi_table <- fi_table;
  t.fi <- fi;
  t.fs <- fs;
  t.rebuilds <- t.rebuilds + 1;
  Rebuilt reason

(* [prog] with [p] in place of the procedure of its name, or appended when
   there is none.  Only the procedures before it are copied: every other
   procedure, and the list after it, stays physically shared, which is
   what the rebuild route's carry-over keys on. *)
let substitute (prog : Ast.program) (p : Ast.proc) : Ast.program =
  let rec go before = function
    | [] -> List.rev (p :: before)
    | q :: after when String.equal q.Ast.pname p.Ast.pname ->
        List.rev_append before (p :: after)
    | q :: after -> go (q :: before) after
  in
  { prog with Ast.procs = go [] prog.Ast.procs }

(* Semantic check of [prog], which is the current program with [p] in place
   of [old].  The current program is clean, so when [p] keeps [old]'s
   formal count the only errors the whole-program check can report are
   [p]'s own, in the same order: check just [p] against the current
   procedure table.  A new procedure or a changed formal count (which
   callers' arity checks read) takes the whole-program check. *)
let check_edit t (old : Ast.proc option) prog (p : Ast.proc) =
  Trace.span "engine:sema" @@ fun () ->
  match old with
  | Some q when List.compare_lengths q.Ast.formals p.Ast.formals = 0 -> (
      let find_proc name =
        if String.equal name p.Ast.pname then Some p
        else Callgraph.find_ast t.ctx.Context.pcg name
      in
      match Sema.check_proc ~find_proc p with
      | [] -> ()
      | es -> raise (Sema.Illformed es))
  | Some _ | None -> Sema.check_exn prog

(** Replace procedure [p.pname]'s definition with [p] (or add it when no
    procedure of that name exists) and re-establish both solutions.
    @raise Sema.Illformed when the edited program fails {!Sema.check};
    the engine state is untouched in that case. *)
let edit_proc ?jobs t (p : Ast.proc) : outcome =
  Trace.span ~args:(fun () -> [ ("proc", p.Ast.pname) ]) "engine:edit"
  @@ fun () ->
  let ctx = t.ctx in
  let pcg = ctx.Context.pcg in
  let old = Callgraph.find_ast pcg p.Ast.pname in
  let prog = substitute ctx.Context.prog p in
  check_edit t old prog p;
  t.edits <- t.edits + 1;
  match old with
  | None ->
      (* A new procedure changes the program shape outright. *)
      rebuild ?jobs t prog "new procedure"
  | Some _ -> (
      (* Only the edited procedure's summary can change — summaries are
         per-body and the globals list is untouched by a procedure edit —
         so summarize just that procedure. *)
      let new_s =
        Trace.span "engine:summary" (fun () ->
            Summary.summarize_in pcg.Callgraph.scope p)
      in
      match Callgraph.proc_id pcg p.Ast.pname with
      | None ->
          (* Unreachable procedure: no analysis artifact depends on its
             body.  Record the new text and summary; both solutions
             stand. *)
          Context.replace_proc ctx prog p new_s;
          t.incremental_edits <- t.incremental_edits + 1;
          Incremental { dirty = 0; total = Callgraph.n_procs pcg }
      | Some pid ->
          let old_s = Summary.find ctx.Context.summaries p.Ast.pname in
          if not (summary_shape_equal old_s new_s) then
            rebuild ?jobs t prog "summary shape changed"
          else begin
            (* Shape preserved: swap the procedure and its summary in
               place, invalidate only the edited procedure's artifacts. *)
            Trace.span "engine:invalidate" (fun () ->
                Context.replace_proc ctx prog p new_s;
                Context.invalidate_proc ctx pid);
            (* The FI pass re-runs in full over its compiled table, with
               the edited procedure's literal words patched; it reports
               the call records whose values changed. *)
            let fi', changed = Fi_icp.update t.fi_table pid in
            (* Seeds: the edited procedure, plus the callee of every back
               edge whose flow-insensitive record changed — the only
               channel through which an edit reaches a procedure that is
               not downstream of it over forward edges. *)
            let dirty =
              Trace.span "engine:seeds" @@ fun () ->
              Callgraph.cone pcg
                ~seeds:
                  (List.fold_left
                     (fun seeds (e : Callgraph.edge) ->
                       if e.Callgraph.back then e.Callgraph.callee :: seeds
                       else seeds)
                     [ pid ] changed)
            in
            let fs' = Fs_icp.resolve ?jobs ~fi:fi' ~prev:t.fs ~dirty ctx in
            t.fi <- fi';
            t.fs <- fs';
            t.incremental_edits <- t.incremental_edits + 1;
            Incremental
              { dirty = Array.length dirty; total = Callgraph.n_procs pcg }
          end)

(** Apply several procedure edits as one: the program with every edit
    substituted is checked first, so an ill-formed batch raises
    {!Sema.Illformed} with the engine untouched.  The edits are then
    applied in order, each by {!edit_proc}; when a prefix of the batch is
    ill-formed on its own (a formal added to a procedure and to its
    callers' calls), the rest of the batch is analysed in one rebuild. *)
let edit_procs ?jobs t (ps : Ast.proc list) : outcome list =
  match ps with
  | [] | [ _ ] -> List.map (edit_proc ?jobs t) ps
  | _ ->
      Trace.span "engine:sema" (fun () ->
          Sema.check_exn (List.fold_left substitute t.ctx.Context.prog ps));
      let rec go = function
        | [] -> []
        | p :: rest as todo -> (
            match edit_proc ?jobs t p with
            | o -> o :: go rest
            | exception Sema.Illformed _ ->
                t.edits <- t.edits + List.length todo;
                let o =
                  rebuild ?jobs t
                    (List.fold_left substitute t.ctx.Context.prog todo)
                    "batch"
                in
                List.map (fun _ -> o) todo)
      in
      go ps
