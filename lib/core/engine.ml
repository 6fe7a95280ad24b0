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
      over the call-site arguments), and the flow-sensitive solution is
      re-solved from seeds ({!Fs_icp.resolve}): the edited procedure and
      the callee of every back edge whose flow-insensitive record
      changed.  Only the seeds' downstream cone is driven, and in it only
      the seeds and the procedures whose forward in-edge records changed
      are analysed again (early cutoff); everything else keeps its
      previous outputs.  A traced edit
      records one span per step: [engine:sema], [engine:summary],
      [engine:invalidate], [fi:update], [engine:seeds], [fs:resolve].

    - {b rebuild} — when the shape changes (procedure added, call site
      added/removed/retargeted, formals or immediate MOD/REF changed): a
      fresh context is built and both solutions are re-established over
      it.  MOD/REF runs as on a cold start, but the new context is
      built with the old one as [~prev] ({!Context.create}), so whatever
      provably did not change carries over instead of being rebuilt: the
      PCG and the alias pairs when no call changed (same procedures, and
      every re-summarized procedure keeps its formals, callees and
      argument shapes); by name, the summary, lowered IR and alias-kill
      table of every procedure whose AST node and the globals list are
      physically the old ones, and the SSA form (with its SCC entry-vector
      memo) of every such procedure whose own MOD/REF closures, callees'
      closures and alias-kill table are also unchanged.  When the PCG
      carried over, the compiled FI table does too: it moves to the new
      context and re-derives only what MOD/REF decides — which formal
      pass-throughs may pass, the program constants, the REF-closure
      global lists — before the one pass re-runs ({!Fi_icp.update} with
      [~ctx], the same re-solve as the incremental route).  FS is then
      re-solved like an incremental edit, seeded with every procedure
      whose SSA did not carry over and the callee of every back edge
      whose FI record {!Fi_icp.update} reports changed.  Otherwise ids
      change, and FI and FS are solved from scratch.  A store added at
      one procedure's head keeps the PCG and aliases, leaves all but its
      ancestors' SSA in place, and analyses again only those ancestors
      and the procedures whose call records they changed.

    Either way the resulting {!solution} is identical to a from-scratch
    solve of the edited program at any [jobs] — the differential oracle
    ({!Fsicp_oracle.Oracle}) checks this byte-for-byte over random edit
    sequences.

    The engine also answers copy-constant reads ({!cc_solution}).  On a
    PCG without a back edge, FS is one forward sweep whose in-edge records
    are final when read, and CC's first pass agrees with it on every
    entry and call record, so the read is the FS solution under CC's
    method name; only a cyclic PCG runs {!Cc_icp.solve}. *)

open Fsicp_lang
open Fsicp_ipa
open Fsicp_callgraph

module Trace = Fsicp_trace.Trace

type t = {
  floats : bool;
  mutable ctx : Context.t;
  mutable fi_table : Fi_icp.table;
      (** the FI pass compiled for [ctx]'s PCG; a rebuild that keeps the
          PCG moves it to the new context, any other recompiles it *)
  mutable fi : Solution.t;
  mutable fs : Solution.t;
  mutable edits : int;
  mutable incremental_edits : int;
  mutable rebuilds : int;
}

type outcome =
  | Incremental of { dirty : int; total : int }
      (** [dirty] procedures analysed again out of [total] reachable *)
  | Rebuilt of string  (** rebuilt context, with the reason *)

let create ?(floats = true) ?jobs (prog : Ast.program) : t =
  Sema.check_exn prog;
  let ctx = Context.create ~floats ?jobs prog in
  Trace.span "engine:ssa" (fun () -> Context.build_ssa ?jobs ctx);
  let fi_table, fi = Fi_icp.solve_table ctx in
  let fs = Fs_icp.solve ?jobs ~fi ctx in
  { floats; ctx; fi_table; fi; fs; edits = 0; incremental_edits = 0;
    rebuilds = 0 }

let context t = t.ctx
let solution t = t.fs
let fi_solution t = t.fi

(* Without a back edge FS is one forward sweep that reads every in-edge
   record final, so CC's optimistic copy iteration finds nothing more:
   copy propagation subsumes constant propagation (Sreekala and Paleri),
   and CC's first pass agrees with FS on every entry and call record.
   Only [scc_runs] differs, so the relabelled solution is an answer, never
   a digest. *)
let cc_solution ?jobs t =
  if Callgraph.has_cycles t.ctx.Context.pcg then Cc_icp.solve ?jobs t.ctx
  else { t.fs with Solution.method_name = Cc_icp.method_name }

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

(* [seeds] plus the callee of every back edge in [edges]: a back edge is
   the only channel through which a changed flow-insensitive record
   reaches a procedure that is not downstream of a seed over forward
   edges. *)
let with_back_edge_callees seeds (edges : Callgraph.edge list) =
  List.fold_left
    (fun seeds (e : Callgraph.edge) ->
      if e.Callgraph.back then e.Callgraph.callee :: seeds else seeds)
    seeds edges

(* A fresh context with the old one as [~prev], then both solutions.  When
   the context kept the PCG (same nodes, so the same ids) and the
   block-data roots, the FI table moves to the new context
   ({!Fi_icp.update} with [~ctx]) and FS is re-solved incrementally from
   the old solution: the seeds are the procedures whose SSA did not carry
   over (read before the SSA build fills the cache) and the callees of
   the back edges whose FI records changed.  Otherwise FI is compiled
   afresh and FS is solved from scratch.  [edited] are the procedures
   whose text changed. *)
let rebuild ?jobs t prog (edited : Ast.proc list) reason : outcome =
  let old = t.ctx in
  let ctx = Context.create ~floats:t.floats ?jobs ~prev:old prog in
  let keeps_pcg =
    ctx.Context.pcg.Callgraph.nodes == old.Context.pcg.Callgraph.nodes
    && prog.Ast.blockdata == old.Context.prog.Ast.blockdata
  in
  let unbuilt = if keeps_pcg then Context.unbuilt_ssa ctx else [] in
  Trace.span "engine:ssa" (fun () -> Context.build_ssa ?jobs ctx);
  let fi, fs =
    if keeps_pcg then begin
      let fi, changed =
        Fi_icp.update ~ctx t.fi_table
          (List.filter_map
             (fun (p : Ast.proc) ->
               Callgraph.proc_id ctx.Context.pcg p.Ast.pname)
             edited)
      in
      let seeds =
        Trace.span "engine:seeds" (fun () ->
            with_back_edge_callees unbuilt changed)
      in
      (fi, fst (Fs_icp.resolve ?jobs ~fi ~prev:t.fs ~seeds ctx))
    end
    else begin
      let fi_table, fi = Fi_icp.solve_table ctx in
      t.fi_table <- fi_table;
      (fi, Fs_icp.solve ?jobs ~fi ctx)
    end
  in
  t.ctx <- ctx;
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
      rebuild ?jobs t prog [ p ] "new procedure"
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
            rebuild ?jobs t prog [ p ] "summary shape changed"
          else begin
            (* Shape preserved: swap the procedure and its summary in
               place, invalidate only the edited procedure's artifacts. *)
            Trace.span "engine:invalidate" (fun () ->
                Context.replace_proc ctx prog p new_s;
                Context.invalidate_proc ctx pid);
            (* The FI pass re-runs in full over its compiled table, with
               the edited procedure's literal words patched; it reports
               the call records whose values changed. *)
            let fi', changed = Fi_icp.update t.fi_table [ pid ] in
            (* Seeds: the edited procedure, plus the callee of every back
               edge whose flow-insensitive record changed. *)
            let seeds =
              Trace.span "engine:seeds" (fun () ->
                  with_back_edge_callees [ pid ] changed)
            in
            let fs', driven =
              Fs_icp.resolve ?jobs ~fi:fi' ~prev:t.fs ~seeds ctx
            in
            t.fi <- fi';
            t.fs <- fs';
            t.incremental_edits <- t.incremental_edits + 1;
            Incremental { dirty = driven; total = Callgraph.n_procs pcg }
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
                    todo "batch"
                in
                List.map (fun _ -> o) todo)
      in
      go ps
