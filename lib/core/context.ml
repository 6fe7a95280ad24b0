(** Shared analysis context: everything the interprocedural constant
    propagation methods consume, built once per program (paper Figure 2,
    steps 1–4).

    - IPA summaries (step 1)
    - the program call graph (step 2)
    - reference-parameter aliases (step 3)
    - interprocedural MOD/REF (step 4)
    - lowered CFGs and lazily-built SSA form of every reachable procedure

    The [floats] switch mirrors the paper's "our implementation optionally
    propagates floating point constants": with [floats = false] a real-
    valued constant is demoted to bottom at every {e interprocedural}
    boundary (block-data seeds, argument and global contributions, return
    summaries) while intraprocedural folding is unaffected. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ipa
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_scc
open Fsicp_par

module Trace = Fsicp_trace.Trace

(* Lowering and SSA construction volume.  [ssa.built] is jobs-invariant
   (every reachable procedure is built exactly once, eagerly or lazily);
   [ssa.cache_hits] depends on whether {!build_ssa} pre-filled the cache.
   [Fs_icp] pre-builds only when the build fans out, so the count depends
   on [jobs] past [Par.cutoff Init] procedures and not below it, and is
   deterministic at a fixed count. *)
let c_lower_procs = Trace.counter "lower.procs"
let c_ssa_built = Trace.counter "ssa.built"
let c_ssa_hits = Trace.counter "ssa.cache_hits"

(* Artifacts a [create ~prev] carried over instead of rebuilding. *)
let c_lower_reused = Trace.counter "lower.reused"
let c_ssa_reused = Trace.counter "ssa.reused"
let c_pcg_reused = Trace.counter "callgraph.reused"

(** Raw reference-parameter alias lists of every formal or global a
    procedure directly assigns, as parallel arrays sorted by
    [Ir.Var.compare].  The lists depend only on the IPA results, so they
    are computed once per context and shared by every SSA (re)build; the
    arrays are immutable after {!create}, which keeps concurrent builds on
    several domains race-free. *)
type alias_kills = { ak_vars : Ir.var array; ak_lists : Ir.var list array }

(** Streaming mode holds no state: [stream = Some ()] marks it. *)
type stream = unit

type t = {
  mutable prog : Ast.program;
  pcg : Callgraph.t;
  mutable summaries : Summary.t;
  aliases : Alias.t;
  modref : Modref.t;
  floats : bool;
  lowered : Ir.proc option Prog.Proc.Tbl.t;
      (** reachable procedures only; [None] = not lowered yet (streaming)
          or already evicted *)
  alias_kills : alias_kills option Prog.Proc.Tbl.t;
  ssa_cache : Ssa.proc option Prog.Proc.Tbl.t;
  epochs : int Prog.Proc.Tbl.t;
      (** validity epoch of each procedure's derived artifacts (lowered
          IR, alias kills, SSA, SCC memo); see {!invalidate_proc} *)
  mutable edit_epoch : int;
      (** the current epoch: 0 at {!create}, bumped per invalidation *)
  stream : stream option;  (** [Some _] iff built by {!create_streaming} *)
}

(** Lower every reachable procedure under [scope], keeping the IR [reuse]
    supplies for a procedure instead of lowering it again.  Each lowering
    is independent (all mutable state is builder-local; the scope is
    read-only), so the work is embarrassingly parallel: it runs on up to
    [jobs] domains once enough procedures need lowering
    ({!Fsicp_par.Par.domains}). *)
let lower_reusing ~jobs ~reuse scope (pcg : Callgraph.t) :
    Ir.proc Prog.Proc.Tbl.t =
  let kept = Prog.tbl_init pcg.Callgraph.db reuse in
  let missing =
    Array.of_list
      (List.filter
         (fun pid -> Prog.Proc.Tbl.get kept pid = None)
         (Array.to_list pcg.Callgraph.nodes))
  in
  let n = Array.length missing in
  Trace.add c_lower_procs n;
  Trace.add c_lower_reused (Callgraph.n_procs pcg - n);
  let procs =
    Par.parallel_init ~label:"lower:proc"
      ~jobs:(Par.domains Par.Init ~jobs n)
      n
      (fun i ->
        Lower.lower_in scope (Callgraph.proc_ast pcg missing.(i)))
  in
  Array.iteri
    (fun i pid -> Prog.Proc.Tbl.set kept pid (Some procs.(i)))
    missing;
  Prog.Proc.Tbl.map Option.get kept

let lower_all ~jobs (prog : Ast.program) (pcg : Callgraph.t) =
  let scope =
    if prog.Ast.globals == pcg.Callgraph.prog.Ast.globals then
      pcg.Callgraph.scope
    else Sema.scope prog
  in
  lower_reusing ~jobs ~reuse:(fun _ -> None) scope pcg

(** The alias list a store to [v] in [proc_name] must kill (raw: unsorted,
    may include [v] itself; SSA construction normalizes). *)
let raw_assign_aliases (aliases : Alias.t)
    (summary : Summary.proc_summary) (proc_name : string) (v : Ir.var) :
    Ir.var list =
  let formal_var i =
    match List.nth_opt summary.Summary.ps_formals i with
    | Some name -> Some (Ir.formal name i)
    | None -> None
  in
  match v.Ir.vkind with
  | Ir.Local | Ir.Temp -> []
  | Ir.Formal i ->
      let ff =
        Alias.formals_aliasing_formal aliases proc_name i
        |> List.filter_map formal_var
      in
      let fg =
        Alias.globals_aliasing_formal aliases proc_name i
        |> List.map Ir.global
      in
      ff @ fg
  | Ir.Global ->
      let g = Ir.Var.name v in
      List.mapi (fun i name -> (i, name)) summary.Summary.ps_formals
      |> List.filter_map (fun (i, name) ->
             if Alias.formal_global_may_alias aliases proc_name i g then
               Some (Ir.formal name i)
             else None)

(** Alias-kill table of one procedure: one entry per distinct directly
    assigned formal or global. *)
let alias_kills_of_proc aliases summaries (p : Ir.proc) : alias_kills =
  let summary = Summary.find summaries p.Ir.name in
  let seen : (int, Ir.var) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (blk : Ir.block) ->
      Array.iter
        (function
          | Ir.Assign (v, _) -> (
              match v.Ir.vkind with
              | Ir.Local | Ir.Temp -> ()
              | Ir.Formal _ | Ir.Global ->
                  Hashtbl.replace seen (Ir.Var.slot_key v) v)
          | Ir.Call _ | Ir.Print _ -> ())
        blk.Ir.instrs)
    p.Ir.cfg.Ir.blocks;
  let vars = Array.of_seq (Hashtbl.to_seq_values seen) in
  Array.sort Ir.Var.compare vars;
  {
    ak_vars = vars;
    ak_lists = Array.map (raw_assign_aliases aliases summary p.Ir.name) vars;
  }

(** Alias-kill tables for every reachable procedure. *)
let compute_alias_kills aliases summaries (pcg : Callgraph.t)
    (lowered : Ir.proc Prog.Proc.Tbl.t) : alias_kills Prog.Proc.Tbl.t =
  Prog.tbl_init pcg.Callgraph.db (fun pid ->
      alias_kills_of_proc aliases summaries (Prog.Proc.Tbl.get lowered pid))

(* Equal alias-kill tables: the same table, or the same variables and the
   same kill lists. *)
let alias_kills_equal (a : alias_kills) (b : alias_kills) : bool =
  a == b
  || Array.length a.ak_vars = Array.length b.ak_vars
  && Array.for_all2 Ir.Var.equal a.ak_vars b.ak_vars
  && Array.for_all2 (List.equal Ir.Var.equal) a.ak_lists b.ak_lists

(* Does [prog] make exactly the calls [c]'s program makes?  Same entry,
   same procedure names in the same order, and every procedure whose
   summary was not carried over from [c] keeps its formals and its call
   shapes.  The PCG and the alias pairs read nothing else, so they then
   come out as [c]'s. *)
let same_calls (c : t) (summaries : Summary.t) (prog : Ast.program) : bool =
  String.equal prog.Ast.main c.prog.Ast.main
  && List.equal
       (fun (p : Ast.proc) (q : Ast.proc) ->
         String.equal p.Ast.pname q.Ast.pname)
       prog.Ast.procs c.prog.Ast.procs
  && List.for_all
       (fun (p : Ast.proc) ->
         let s = Summary.find summaries p.Ast.pname in
         match Hashtbl.find_opt c.summaries.Summary.table p.Ast.pname with
         | Some old ->
             s == old
             || List.equal String.equal s.Summary.ps_formals
                  old.Summary.ps_formals
                && Summary.calls_shape_equal s.Summary.ps_calls
                     old.Summary.ps_calls
         | None -> false)
       prog.Ast.procs

(** Build the context for a {!Sema.check}-clean program.  [jobs] bounds the
    domains used for per-procedure lowering (default
    {!Fsicp_par.Par.default_jobs}); the result is identical for every
    value.

    [prev] is the context of an earlier version of the same program.
    MOD/REF runs as without it; everything else whose inputs provably did
    not change is taken over from [prev]:
    - the PCG and the alias pairs, when the program makes the same calls
      ({!same_calls}); the PCG gets its own program and name index
      ({!Callgraph.with_program});
    - by procedure name, the summary and the lowered IR, when the
      procedure's AST node and the globals list are physically [prev]'s
      (both read nothing else);
    - the alias-kill table, when the alias pairs, the procedure's summary
      and its IR are all physically [prev]'s (it reads nothing else);
    - the SSA form, with the SCC entry-vector memo inside it, when in
      addition the procedure's own MOD and REF closures, those of each of
      its callees, and its alias-kill table equal [prev]'s — exactly what
      the SSA side-effect oracle ({!effects_for}) reads.
    Proc ids are never carried over into per-procedure artifacts: IR and
    SSA hold none. *)
let create ?(floats = true) ?jobs ?prev (prog : Ast.program) : t =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  let prev =
    match prev with
    | Some c when c.stream = None && c.prog.Ast.globals == prog.Ast.globals ->
        Some c
    | Some _ | None -> None
  in
  let pcg, summaries, aliases, modref =
    Trace.span "context:ipa" @@ fun () ->
    let summaries =
      Trace.span "ipa:summary" @@ fun () ->
      Summary.collect ?prev:(Option.map (fun c -> c.summaries) prev) prog
    in
    let carried, pcg =
      Trace.span "ipa:callgraph" @@ fun () ->
      match prev with
      | Some c when same_calls c summaries prog ->
          Trace.incr c_pcg_reused;
          (Some c, Callgraph.with_program c.pcg prog)
      | Some _ | None -> (None, Callgraph.build prog)
    in
    let aliases =
      Trace.span "ipa:alias" @@ fun () ->
      match carried with
      | Some c -> c.aliases
      | None -> Alias.compute summaries pcg
    in
    let modref =
      Trace.span "ipa:modref" (fun () -> Modref.compute summaries aliases pcg)
    in
    (pcg, summaries, aliases, modref)
  in
  (* [prev]'s id for a procedure whose AST node it shares. *)
  let same_in_prev pid =
    Option.bind prev (fun c ->
        match Callgraph.proc_id c.pcg (Callgraph.proc_name pcg pid) with
        | Some old
          when Callgraph.proc_ast c.pcg old == Callgraph.proc_ast pcg pid ->
            Some (c, old)
        | Some _ | None -> None)
  in
  let lowered, alias_kills =
    Trace.span "context:lower" @@ fun () ->
    let lowered =
      lower_reusing ~jobs pcg.Callgraph.scope pcg ~reuse:(fun pid ->
          Option.bind (same_in_prev pid) (fun (c, old) ->
              Prog.Proc.Tbl.get c.lowered old))
    in
    let kills pid =
      let ir = Prog.Proc.Tbl.get lowered pid in
      let carried =
        Option.bind (same_in_prev pid) (fun (c, old) ->
            let name = Callgraph.proc_name pcg pid in
            match Prog.Proc.Tbl.get c.lowered old with
            | Some old_ir
              when old_ir == ir && c.aliases == aliases
                   && Summary.find c.summaries name
                      == Summary.find summaries name ->
                Prog.Proc.Tbl.get c.alias_kills old
            | Some _ | None -> None)
      in
      match carried with
      | Some k -> k
      | None -> alias_kills_of_proc aliases summaries ir
    in
    (lowered, Prog.tbl_init pcg.Callgraph.db kills)
  in
  (* Bit comparisons, once the numbering is known to be shared. *)
  let closures_equal =
    match prev with
    | Some c when Modref.same_numbering modref c.modref ->
        fun pid ->
          Modref.closures_equal modref c.modref (Callgraph.proc_name pcg pid)
    | Some _ | None -> fun _ -> false
  in
  let carried_ssa pid =
    Option.bind (same_in_prev pid) (fun (c, old) ->
        match
          ( Prog.Proc.Tbl.get c.ssa_cache old,
            Prog.Proc.Tbl.get c.lowered old,
            Prog.Proc.Tbl.get c.alias_kills old )
        with
        | Some ssa, Some ir, Some kills
          when ir == Prog.Proc.Tbl.get lowered pid
               && alias_kills_equal kills (Prog.Proc.Tbl.get alias_kills pid)
               && closures_equal pid
               && Array.for_all
                    (fun (e : Callgraph.edge) ->
                      closures_equal e.Callgraph.callee)
                    (Callgraph.out_edges pcg pid) ->
            Trace.incr c_ssa_reused;
            Some ssa
        | _ -> None)
  in
  { prog; pcg; summaries; aliases; modref; floats;
    lowered = Prog.Proc.Tbl.map (fun p -> Some p) lowered;
    alias_kills = Prog.Proc.Tbl.map (fun k -> Some k) alias_kills;
    ssa_cache = Prog.tbl_init pcg.Callgraph.db carried_ssa;
    epochs = Prog.tbl pcg.Callgraph.db 0; edit_epoch = 0; stream = None }

(** Streaming variant of {!create} for huge corpora: the whole-program
    analyses (summaries, PCG, aliasing, MOD/REF) run as usual — they are
    compact — but nothing is lowered or SSA-built up front.  Derived
    per-procedure artifacts materialise on demand ({!lowered_at} /
    {!ssa_at}) and are released again by {!retire} once the procedure has
    been fully consumed, so only the in-flight ones stay resident.
    Strictly a solve-time mode: artifacts of a retired procedure are
    rebuilt (identically) if re-requested, and consumers that walk SSA
    after the solve — transformation, metrics, the returns extension —
    should use {!create} instead. *)
let create_streaming ?(floats = true) (prog : Ast.program) : t =
  let pcg = Callgraph.build prog in
  let summaries = Summary.collect prog in
  let aliases = Alias.compute summaries pcg in
  let modref = Modref.compute summaries aliases pcg in
  { prog; pcg; summaries; aliases; modref; floats;
    lowered = Prog.tbl pcg.Callgraph.db None;
    alias_kills = Prog.tbl pcg.Callgraph.db None;
    ssa_cache = Prog.tbl pcg.Callgraph.db None;
    epochs = Prog.tbl pcg.Callgraph.db 0; edit_epoch = 0; stream = Some () }

let is_streaming t = t.stream <> None

let lowered_at t (pid : Prog.Proc.id) : Ir.proc =
  match Prog.Proc.Tbl.get t.lowered pid with
  | Some p -> p
  | None ->
      (* Streaming miss (or re-request after eviction): lower just this
         procedure.  Lowering is pure and distinct pids write distinct
         slots, so concurrent misses never interfere. *)
      Trace.incr c_lower_procs;
      let p =
        Lower.lower_in t.pcg.Callgraph.scope (Callgraph.proc_ast t.pcg pid)
      in
      Prog.Proc.Tbl.set t.lowered pid (Some p);
      p

(** Per-procedure alias-kill table, built on demand in streaming mode. *)
let alias_kills_at t (pid : Prog.Proc.id) : alias_kills =
  match Prog.Proc.Tbl.get t.alias_kills pid with
  | Some k -> k
  | None ->
      let k = alias_kills_of_proc t.aliases t.summaries (lowered_at t pid) in
      Prog.Proc.Tbl.set t.alias_kills pid (Some k);
      k

(** Release [pid]'s derived artifacts once the solver is done with it
    (no-op on non-streaming contexts).  Nothing reads a procedure's IR,
    alias kills or SSA after its own analysis, and each call writes only
    [pid]'s slots, so concurrent retirements need no lock. *)
let retire t (pid : Prog.Proc.id) : unit =
  if is_streaming t then begin
    Prog.Proc.Tbl.set t.lowered pid None;
    Prog.Proc.Tbl.set t.alias_kills pid None;
    Prog.Proc.Tbl.set t.ssa_cache pid None
  end

(** Per-procedure SSA side-effect oracle, backed by the IPA results. *)
let effects_for t (pid : Prog.Proc.id) : Ssa.call_effects =
  let ak = alias_kills_at t pid in
  {
    Ssa.defs_of_call =
      (fun ~callee ~byref_args ->
        Modref.call_defs t.modref ~callee ~byref_args);
    globals_used_by =
      (fun ~callee -> Modref.call_global_refs t.modref ~callee);
    assign_aliases =
      (fun v ->
        match v.Ir.vkind with
        | Ir.Local | Ir.Temp -> []
        | Ir.Formal _ | Ir.Global ->
            (* Binary search the precomputed per-proc table; a miss means
               the variable is never directly assigned here, so nothing
               needs killing. *)
            let lo = ref 0 and hi = ref (Array.length ak.ak_vars - 1) in
            let found = ref [] in
            while !lo <= !hi do
              let mid = (!lo + !hi) / 2 in
              let c = Ir.Var.compare ak.ak_vars.(mid) v in
              if c = 0 then begin
                found := ak.ak_lists.(mid);
                lo := !hi + 1
              end
              else if c < 0 then lo := mid + 1
              else hi := mid - 1
            done;
            !found);
  }

(** SSA form of a reachable procedure (cached).  Concurrent misses on the
    same id may build twice; the builds are pure and identical, and writes
    to distinct array slots never interfere. *)
let ssa_at t (pid : Prog.Proc.id) : Ssa.proc =
  match Prog.Proc.Tbl.get t.ssa_cache pid with
  | Some p ->
      Trace.incr c_ssa_hits;
      p
  | None ->
      Trace.incr c_ssa_built;
      let p =
        Ssa.of_proc ~effects:(effects_for t pid) t.prog (lowered_at t pid)
      in
      Prog.Proc.Tbl.set t.ssa_cache pid (Some p);
      p

let ssa t name : Ssa.proc =
  match Callgraph.proc_id t.pcg name with
  | Some pid -> ssa_at t pid
  | None -> invalid_arg (Printf.sprintf "Context.ssa: %s" name)

(** Reachable procedures whose SSA form is not cached, in id order. *)
let unbuilt_ssa t : Prog.Proc.id list =
  List.filter
    (fun pid -> Prog.Proc.Tbl.get t.ssa_cache pid = None)
    (Array.to_list t.pcg.Callgraph.nodes)

(** Pre-build the SSA form of every reachable procedure not yet cached, on
    up to [jobs] domains once enough procedures are missing
    ({!Fsicp_par.Par.domains}).  Construction per procedure only reads
    shared immutable analysis results, so it parallelises freely; the
    cache is filled sequentially afterwards.  Once this returns, {!ssa} is
    a read-only cache hit from any domain. *)
let build_ssa ?jobs t : unit =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  let missing = Array.of_list (unbuilt_ssa t) in
  let n = Array.length missing in
  Trace.add c_ssa_built n;
  let built =
    Par.parallel_init ~label:"ssa:build"
      ~jobs:(Par.domains Par.Init ~jobs n)
      n
      (fun i ->
        let pid = missing.(i) in
        Ssa.of_proc ~effects:(effects_for t pid) t.prog (lowered_at t pid))
  in
  Array.iteri
    (fun i pid -> Prog.Proc.Tbl.set t.ssa_cache pid (Some built.(i)))
    missing

let reset_ssa_cache t : unit =
  Array.iter
    (fun pid -> Prog.Proc.Tbl.set t.ssa_cache pid None)
    t.pcg.Callgraph.nodes

(** Drop the SCC entry-vector memo of every cached SSA form while keeping
    the SSA itself: a subsequent solve re-runs every kernel propagation
    (benchmarks use this to measure the solver core on warm SSA). *)
let reset_scc_memos t : unit =
  Array.iter
    (fun pid ->
      match Prog.Proc.Tbl.get t.ssa_cache pid with
      | Some p -> Scc.invalidate_memo p
      | None -> ())
    t.pcg.Callgraph.nodes

(** Swap in an edited program whose only change is [p]'s definition, with
    [s] its fresh summary, updating the name index and summary table in
    place.  In contract only for shape-preserving edits (same reachable
    procedures, same callee sequences, same summary shapes) — the
    incremental engine checks this and rebuilds the whole context
    otherwise. *)
let replace_proc t (prog : Ast.program) (p : Ast.proc)
    (s : Summary.proc_summary) : unit =
  t.prog <- prog;
  Callgraph.replace_proc t.pcg prog p;
  Hashtbl.replace t.summaries.Summary.table p.Ast.pname s;
  t.summaries <- { t.summaries with Summary.prog }

(** Invalidate one procedure's derived artifacts after a body edit: bump
    the global edit epoch, re-lower the procedure from [t.prog], recompute
    its alias-kill table, drop its cached SSA (the SCC entry-vector memo
    lives inside the SSA value and dies with it), and stamp the
    procedure's epoch.  Every other procedure's artifacts stay valid —
    their epochs are untouched. *)
let invalidate_proc t (pid : Prog.Proc.id) : unit =
  t.edit_epoch <- t.edit_epoch + 1;
  let ir =
    Lower.lower_in t.pcg.Callgraph.scope (Callgraph.proc_ast t.pcg pid)
  in
  Prog.Proc.Tbl.set t.lowered pid (Some ir);
  Prog.Proc.Tbl.set t.alias_kills pid
    (Some (alias_kills_of_proc t.aliases t.summaries ir));
  (match Prog.Proc.Tbl.get t.ssa_cache pid with
  | Some p -> Scc.invalidate_memo p
  | None -> ());
  Prog.Proc.Tbl.set t.ssa_cache pid None;
  Prog.Proc.Tbl.set t.epochs pid t.edit_epoch

let current_epoch t : int = t.edit_epoch

(** Demote real-valued constants to bottom when float propagation is off.
    Applied at every interprocedural boundary. *)
let censor t (v : Lattice.t) : Lattice.t =
  match v with
  | Lattice.Const (Value.Real _) when not t.floats -> Lattice.Bot
  | Lattice.Top | Lattice.Const _ | Lattice.Bot -> v

(** Packed variant of {!censor}, allocation-free. *)
let censor_w t (w : int) : int =
  if Lattice.P.is_real_const w && not t.floats then Lattice.P.bot else w

(** Block-data initial values, censored: the global constant seeds, keyed
    by interned variable id (the entry-environment hot paths are id-only;
    spellings come back via {!Prog.Var.name} at the edges). *)
let blockdata_env t : (Prog.Var.id * Lattice.t) list =
  List.map
    (fun (g, v) -> (Prog.Var.intern g, censor t (Lattice.Const v)))
    t.prog.Ast.blockdata

(** Is global [g] textually mentioned in (visible to) procedure [p]?  The
    VIS column of Table 1 counts call-site global constants whose global is
    visible in the {e calling} procedure; the rest are the paper's
    "invisible" globals. *)
let global_visible_in t proc_name g =
  let s = Summary.find t.summaries proc_name in
  Summary.VrefSet.mem (Summary.Vglobal g) s.Summary.ps_iref
  || Summary.VrefSet.mem (Summary.Vglobal g) s.Summary.ps_imod

(** Is global [g] directly (immediately) referenced in [p]?  Table 2 counts
    a global constant for a procedure only when the procedure itself reads
    it (the paper creates entry assignments only for such globals). *)
let global_direct_ref t proc_name g =
  let s = Summary.find t.summaries proc_name in
  Summary.VrefSet.mem (Summary.Vglobal g) s.Summary.ps_iref
