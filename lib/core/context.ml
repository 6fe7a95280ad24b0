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
   [ssa.cache_hits] depends on whether {!build_ssa} pre-filled the cache,
   i.e. on [jobs], but is deterministic at a fixed count. *)
let c_lower_procs = Trace.counter "lower.procs"
let c_ssa_built = Trace.counter "ssa.built"
let c_ssa_hits = Trace.counter "ssa.cache_hits"

(* Artifacts a [create ~prev] carried over instead of rebuilding. *)
let c_lower_reused = Trace.counter "lower.reused"
let c_ssa_reused = Trace.counter "ssa.reused"

(** Raw reference-parameter alias lists of every formal or global a
    procedure directly assigns, as parallel arrays sorted by
    [Ir.Var.slot_key].  The lists depend only on the IPA results, so they
    are computed once per context and shared by every SSA (re)build; the
    arrays are immutable after {!create}, which keeps concurrent builds on
    several domains race-free. *)
type alias_kills = { ak_keys : int array; ak_lists : Ir.var list array }

(** Streaming-mode state: a mutex-protected ring of recently retired
    procedure ids.  {!retire} pushes; once the ring holds [window] ids the
    oldest one's lowered IR, alias-kill table and SSA are dropped, so the
    resident derived artifacts are bounded by [window] plus the procedures
    currently in flight — they scale with the wavefront frontier, not the
    program. *)
type stream = {
  window : int;
  smutex : Mutex.t;
  ring : int array;  (** retired pids awaiting eviction, capacity [window] *)
  mutable rhead : int;
  mutable rlen : int;
}

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

(** Lower every reachable procedure on [jobs] domains, keeping the IR
    [reuse] supplies for a procedure instead of lowering it again.  Each
    lowering is independent (all mutable state is builder-local), so the
    work is embarrassingly parallel. *)
let lower_reusing ~jobs ~reuse prog (pcg : Callgraph.t) :
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
    Par.parallel_init ~label:"lower:proc" ~jobs n (fun i ->
        Lower.lower_proc prog (Callgraph.proc_ast pcg missing.(i)))
  in
  Array.iteri
    (fun i pid -> Prog.Proc.Tbl.set kept pid (Some procs.(i)))
    missing;
  Prog.Proc.Tbl.map Option.get kept

let lower_all ~jobs prog pcg =
  lower_reusing ~jobs ~reuse:(fun _ -> None) prog pcg

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
  let seen : (int, Ir.var list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (blk : Ir.block) ->
      Array.iter
        (function
          | Ir.Assign (v, _) -> (
              match v.Ir.vkind with
              | Ir.Local | Ir.Temp -> ()
              | Ir.Formal _ | Ir.Global ->
                  let k = Ir.Var.slot_key v in
                  if not (Hashtbl.mem seen k) then
                    Hashtbl.add seen k
                      (raw_assign_aliases aliases summary p.Ir.name v))
          | Ir.Call _ | Ir.Print _ -> ())
        blk.Ir.instrs)
    p.Ir.cfg.Ir.blocks;
  let n = Hashtbl.length seen in
  let keys = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    seen;
  Array.sort Int.compare keys;
  { ak_keys = keys; ak_lists = Array.map (fun k -> Hashtbl.find seen k) keys }

(** Alias-kill tables for every reachable procedure. *)
let compute_alias_kills aliases summaries (pcg : Callgraph.t)
    (lowered : Ir.proc Prog.Proc.Tbl.t) : alias_kills Prog.Proc.Tbl.t =
  Prog.tbl_init pcg.Callgraph.db (fun pid ->
      alias_kills_of_proc aliases summaries (Prog.Proc.Tbl.get lowered pid))

(* Equal alias-kill tables: same keys, same kill lists. *)
let alias_kills_equal (a : alias_kills) (b : alias_kills) : bool =
  a.ak_keys = b.ak_keys
  && Array.for_all2 (List.equal Ir.Var.equal) a.ak_lists b.ak_lists

(** Build the context for a {!Sema.check}-clean program.  [jobs] bounds the
    domains used for per-procedure lowering (default
    {!Fsicp_par.Par.default_jobs}); the result is identical for every
    value.

    [prev] is the context of an earlier version of the same program.  The
    whole-program phases (PCG, aliasing, MOD/REF) run as without it, but
    per-procedure artifacts whose inputs provably did not change are taken
    over from [prev] by procedure name:
    - the summary and the lowered IR, when the procedure's AST node and
      the globals list are physically [prev]'s (both read nothing else);
    - the SSA form, with the SCC entry-vector memo inside it, when in
      addition the procedure's own MOD and REF closures, those of each of
      its callees, and its alias-kill table equal [prev]'s — exactly what
      the SSA side-effect oracle ({!effects_for}) reads.
    Proc ids are never carried over: IR and SSA hold none. *)
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
    let pcg = Callgraph.build prog in
    let summaries =
      Summary.collect ?prev:(Option.map (fun c -> c.summaries) prev) prog
    in
    let aliases = Alias.compute summaries pcg in
    (pcg, summaries, aliases, Modref.compute summaries aliases pcg)
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
      lower_reusing ~jobs prog pcg ~reuse:(fun pid ->
          Option.bind (same_in_prev pid) (fun (c, old) ->
              Prog.Proc.Tbl.get c.lowered old))
    in
    (lowered, compute_alias_kills aliases summaries pcg lowered)
  in
  let closures_equal (c : t) pid =
    let name = Callgraph.proc_name pcg pid in
    Summary.VrefSet.equal (Modref.gmod_of modref name)
      (Modref.gmod_of c.modref name)
    && Summary.VrefSet.equal (Modref.gref_of modref name)
         (Modref.gref_of c.modref name)
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
               && closures_equal c pid
               && Array.for_all
                    (fun (e : Callgraph.edge) ->
                      closures_equal c e.Callgraph.callee)
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
    been fully consumed, keeping at most [window] retired procedures plus
    the in-flight ones resident.  Strictly a solve-time mode: artifacts of
    a retired procedure are rebuilt (identically) if re-requested, and
    consumers that walk SSA after the solve — transformation, metrics, the
    returns extension — should use {!create} instead. *)
let create_streaming ?(floats = true) ?(window = 64) (prog : Ast.program) : t =
  let window = max 1 window in
  let pcg = Callgraph.build prog in
  let summaries = Summary.collect prog in
  let aliases = Alias.compute summaries pcg in
  let modref = Modref.compute summaries aliases pcg in
  { prog; pcg; summaries; aliases; modref; floats;
    lowered = Prog.tbl pcg.Callgraph.db None;
    alias_kills = Prog.tbl pcg.Callgraph.db None;
    ssa_cache = Prog.tbl pcg.Callgraph.db None;
    epochs = Prog.tbl pcg.Callgraph.db 0; edit_epoch = 0;
    stream =
      Some
        {
          window;
          smutex = Mutex.create ();
          ring = Array.make window 0;
          rhead = 0;
          rlen = 0;
        } }

let is_streaming t = t.stream <> None

let lowered_at t (pid : Prog.Proc.id) : Ir.proc =
  match Prog.Proc.Tbl.get t.lowered pid with
  | Some p -> p
  | None ->
      (* Streaming miss (or re-request after eviction): lower just this
         procedure.  Lowering is pure and distinct pids write distinct
         slots, so concurrent misses never interfere. *)
      Trace.incr c_lower_procs;
      let p = Lower.lower_proc t.prog (Callgraph.proc_ast t.pcg pid) in
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
    (no-op on non-streaming contexts).  The id enters the retirement ring;
    the eviction itself happens [window] retirements later, so very recent
    procedures stay warm for any straggling reads. *)
let retire t (pid : Prog.Proc.id) : unit =
  match t.stream with
  | None -> ()
  | Some s ->
      Mutex.lock s.smutex;
      if s.rlen = s.window then begin
        let old = s.ring.(s.rhead) in
        s.rhead <- (s.rhead + 1) mod s.window;
        s.rlen <- s.rlen - 1;
        let opid = t.pcg.Callgraph.nodes.(old) in
        Prog.Proc.Tbl.set t.lowered opid None;
        Prog.Proc.Tbl.set t.alias_kills opid None;
        Prog.Proc.Tbl.set t.ssa_cache opid None
      end;
      s.ring.((s.rhead + s.rlen) mod s.window) <- (pid :> int);
      s.rlen <- s.rlen + 1;
      Mutex.unlock s.smutex

let lowered_proc t name : Ir.proc =
  match Callgraph.proc_id t.pcg name with
  | Some pid -> lowered_at t pid
  | None -> invalid_arg (Printf.sprintf "Context.lowered_proc: %s" name)

(** Per-procedure SSA side-effect oracle, backed by the IPA results. *)
let effects_for t (proc_name : string) : Ssa.call_effects =
  let summary = Summary.find t.summaries proc_name in
  let kills =
    match Callgraph.proc_id t.pcg proc_name with
    | Some pid -> Some (alias_kills_at t pid)
    | None -> None
  in
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
        | Ir.Formal _ | Ir.Global -> (
            match kills with
            | None -> raw_assign_aliases t.aliases summary proc_name v
            | Some ak ->
                (* Binary search the precomputed per-proc table; a miss
                   means the variable is never directly assigned here, so
                   nothing needs killing. *)
                let key = Ir.Var.slot_key v in
                let lo = ref 0 and hi = ref (Array.length ak.ak_keys - 1) in
                let found = ref [] in
                while !lo <= !hi do
                  let mid = (!lo + !hi) / 2 in
                  let k = ak.ak_keys.(mid) in
                  if k = key then begin
                    found := ak.ak_lists.(mid);
                    lo := !hi + 1
                  end
                  else if k < key then lo := mid + 1
                  else hi := mid - 1
                done;
                !found));
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
      let name = Callgraph.proc_name t.pcg pid in
      let p =
        Ssa.of_proc ~effects:(effects_for t name) t.prog (lowered_at t pid)
      in
      Prog.Proc.Tbl.set t.ssa_cache pid (Some p);
      p

let ssa t name : Ssa.proc =
  match Callgraph.proc_id t.pcg name with
  | Some pid -> ssa_at t pid
  | None -> invalid_arg (Printf.sprintf "Context.ssa: %s" name)

(** Pre-build the SSA form of every reachable procedure not yet cached, on
    [jobs] domains.  Construction per procedure only reads shared immutable
    analysis results, so it parallelises freely; the cache is filled
    sequentially afterwards.  Once this returns, {!ssa} is a read-only
    cache hit from any domain. *)
let build_ssa ?jobs t : unit =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  let missing =
    Array.of_list
      (List.filter
         (fun pid -> Prog.Proc.Tbl.get t.ssa_cache pid = None)
         (Array.to_list t.pcg.Callgraph.nodes))
  in
  Trace.add c_ssa_built (Array.length missing);
  let built =
    Par.parallel_init ~label:"ssa:build" ~jobs (Array.length missing) (fun i ->
        let pid = missing.(i) in
        let name = Callgraph.proc_name t.pcg pid in
        Ssa.of_proc ~effects:(effects_for t name) t.prog (lowered_at t pid))
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

(** Swap in an edited program.  In contract only for shape-preserving
    edits (same reachable procedures, same callee sequences, same summary
    shapes) — the incremental engine checks this and rebuilds the whole
    context otherwise. *)
let set_program t (prog : Ast.program) : unit =
  t.prog <- prog;
  Callgraph.set_prog t.pcg prog

let set_summaries t (s : Summary.t) : unit = t.summaries <- s

(** Invalidate one procedure's derived artifacts after a body edit: bump
    the global edit epoch, re-lower the procedure from [t.prog], recompute
    its alias-kill table, drop its cached SSA (the SCC entry-vector memo
    lives inside the SSA value and dies with it), and stamp the
    procedure's epoch.  Every other procedure's artifacts stay valid —
    their epochs are untouched. *)
let invalidate_proc t (pid : Prog.Proc.id) : unit =
  t.edit_epoch <- t.edit_epoch + 1;
  let ir = Lower.lower_proc t.prog (Callgraph.proc_ast t.pcg pid) in
  Prog.Proc.Tbl.set t.lowered pid (Some ir);
  Prog.Proc.Tbl.set t.alias_kills pid
    (Some (alias_kills_of_proc t.aliases t.summaries ir));
  (match Prog.Proc.Tbl.get t.ssa_cache pid with
  | Some p -> Scc.invalidate_memo p
  | None -> ());
  Prog.Proc.Tbl.set t.ssa_cache pid None;
  Prog.Proc.Tbl.set t.epochs pid t.edit_epoch

let epoch_of t (pid : Prog.Proc.id) : int = Prog.Proc.Tbl.get t.epochs pid
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
