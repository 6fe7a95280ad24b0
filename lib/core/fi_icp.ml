(** Flow-insensitive interprocedural constant propagation (paper Figure 3).

    {b Globals}: the initial constants are collected from block data; any
    global modified anywhere in the program (it appears in the MOD set of
    the main procedure, which transitively covers every reachable call) is
    removed.  The survivors are constant for the entire program and are
    propagated to every procedure that references them.

    {b Formals}: an optimistic data-flow over the PCG.  All formals start at
    ⊤.  One forward topological traversal inspects every call site: an
    immediate (literal) constant or program-constant global argument meets
    the corresponding formal with that constant; an argument that is a
    formal of the caller which is {e currently marked constant and not
    modified (directly or indirectly) by the caller} passes its constant
    through, and the pair is recorded in the [fp_bind] relation; anything
    else meets with ⊥.  A worklist then handles PCG cycles: when a formal
    that had been constant is lowered to ⊥, everything bound to it through
    [fp_bind] is lowered too, transitively.

    Unlike the pass-through jump function of Callahan–Cooper–Kennedy–Torczon
    and Grove–Torczon, no flow-sensitive intraprocedural analysis is applied
    before propagation — the method sees only argument {e shapes} — so it
    finds fewer candidates (paper §5 calls its results "clearly inferior to
    the no-return polynomial jump function results"); its role is to be the
    cheap sound fallback the flow-sensitive method uses on back edges.

    {b Incremental}: the pass is compiled once per PCG into a flat op
    table, and {!update} keeps it current across every edit that keeps the
    PCG — a shape-preserving body edit patches the edited procedure's
    literal words, and a rebuilt context (new MOD/REF over the same PCG)
    also re-derives the pass-through, program-constant and REF-closure
    parts.  Both then re-run the one pass and rebuild only the entries and
    call records whose values moved. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_ipa
open Fsicp_callgraph
open Fsicp_scc

let method_name = "flow-insensitive"

module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Both counters are deterministic: the forward traversal order and the
   FIFO drain depend only on the program. *)
let c_pops = Trace.counter "fi.worklist_pops"
let c_lowerings = Trace.counter "fi.lowerings"

(* -- Compiled op table --------------------------------------------------

   The pass is compiled once per PCG: the formal slot numbering, one op
   per call-site argument in forward traversal order, and every site's
   caller and callee.  An op either meets its target slot with a fixed
   word (a literal, a program-constant global, or ⊥ for anything else —
   including a pass-through of a formal the caller may modify), or passes
   a caller slot through.  The layout reads only the PCG, the formals and
   the call shapes.  What else the ops and the solution read comes from
   two sources, and {!update} re-derives each in place: literal words from
   procedure bodies, and from MOD/REF whether a pass-through may pass, the
   program constants (with the [Aglobal] words) and the REF-closure global
   lists of entries and call records. *)

type table = {
  mutable ctx : Context.t;
  n_formals : int array;  (** per procedure id *)
  fp_base : int array;
      (** formal [i] of procedure [p] is slot [fp_base.(p) + i];
          length [n + 1] *)
  slot_proc : int array;  (** owning procedure id of each slot *)
  op_target : int array;  (** slot each op meets *)
  op_src : int array;
      (** caller slot of a pass-through op, [-1] for a fixed op (an
          [Aformal] argument the caller may modify is fixed at ⊥) *)
  op_word : int array;  (** packed word of a fixed op *)
  op_box : Lattice.t array;  (** boxed record value of a fixed op *)
  op_site : int array;  (** call site of each op *)
  mutable by_src_start : int array;
  mutable by_src : int array;
      (** pass-through ops by source slot, ascending: slot [k]'s are
          [by_src.(by_src_start.(k) .. by_src_start.(k+1) - 1)] *)
  site_base : int array;
      (** procedure [p]'s call sites are [site_base.(p) ..
          site_base.(p+1) - 1], in summary order, so site [s] of caller [p]
          has [cs_index] [s - site_base.(p)]; length [n + 1] *)
  site_op : int array;  (** site [s]'s argument ops start at [site_op.(s)] *)
  site_caller : Prog.Proc.id array;
  site_callee : Prog.Proc.id array;
  mutable consts : (Prog.Var.id * Lattice.t) list;
      (** the program constants: block-data globals nothing modifies *)
  refs : (Prog.Var.id * Lattice.t) list array;
      (** per procedure, its REF-closure globals (descending by name) at
          their program-wide values: the [cr_globals] of every call to it *)
  pe_globals : (Prog.Var.id * Lattice.t) list array;
      (** per procedure, [refs] ascending: its entry's globals *)
  (* Run state: final words of the last run, a scratch vector for the
     next one, the bound flag of each pass-through op, the lowering queue
     (each bound op is queued at most once: its source slot falls to ⊥
     once), per-site marks for {!update} (all clear between updates) and
     the last solution. *)
  mutable values : int array;
  mutable scratch : int array;
  bound : Bytes.t;
  mutable queue : int array;
  site_mark : Bytes.t;
  mutable last : Solution.t option;
}

(* Block-data globals that nothing reachable from main modifies. *)
let program_constants (ctx : Context.t) =
  let modified =
    Modref.globals_modified_anywhere ctx.Context.modref
      ~main:ctx.Context.prog.Ast.main
  in
  Context.blockdata_env ctx
  |> List.filter (fun ((g : Prog.Var.id), v) ->
         Lattice.is_const v && not (List.mem (Prog.Var.name g) modified))

(* Program-wide global constants hold at every entry and every call site;
   [vars] are the globals the callee may reference. *)
let render consts (vars : Fsicp_cfg.Ir.var list) =
  List.map
    (fun (gv : Fsicp_cfg.Ir.var) ->
      ( gv.Fsicp_cfg.Ir.vid,
        match List.assoc_opt gv.Fsicp_cfg.Ir.vid consts with
        | Some v -> v
        | None -> Lattice.Bot ))
    vars

(* Word and record value of an [Aglobal] op over global [g]. *)
let global_op consts g =
  match List.assoc_opt (Prog.Var.intern g) consts with
  | Some v -> (P.of_t v, v)
  | None -> (P.bot, Lattice.Bot)

(* Group the pass-through ops by source slot (counting sort, stable) and
   size the lowering queue to them. *)
let index_by_src (t : table) =
  let n_slots = Array.length t.slot_proc in
  let by_src_start = Array.make (n_slots + 1) 0 in
  Array.iter
    (fun k -> if k >= 0 then by_src_start.(k + 1) <- by_src_start.(k + 1) + 1)
    t.op_src;
  for k = 0 to n_slots - 1 do
    by_src_start.(k + 1) <- by_src_start.(k + 1) + by_src_start.(k)
  done;
  let fill = Array.sub by_src_start 0 (max 1 n_slots) in
  let by_src = Array.make by_src_start.(n_slots) 0 in
  Array.iteri
    (fun o k ->
      if k >= 0 then begin
        by_src.(fill.(k)) <- o;
        fill.(k) <- fill.(k) + 1
      end)
    t.op_src;
  t.by_src_start <- by_src_start;
  t.by_src <- by_src;
  t.queue <- Array.make (Array.length by_src) 0

let compile (ctx : Context.t) : table =
  let pcg = ctx.Context.pcg in
  let db = pcg.Callgraph.db in
  let n = Callgraph.n_procs pcg in
  let summary pid = Summary.find ctx.Context.summaries (Prog.proc_name db pid) in
  let n_formals =
    Array.init n (fun i ->
        List.length (summary pcg.Callgraph.nodes.(i)).Summary.ps_formals)
  in
  let fp_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    fp_base.(i + 1) <- fp_base.(i) + n_formals.(i)
  done;
  let n_slots = fp_base.(n) in
  let slot_proc = Array.make n_slots 0 in
  for i = 0 to n - 1 do
    Array.fill slot_proc fp_base.(i) n_formals.(i) i
  done;

  (* -- Globals -------------------------------------------------------- *)
  let consts = program_constants ctx in
  let refs =
    Array.map
      (fun pid ->
        render consts (Modref.call_global_refs_at ctx.Context.modref pid))
      pcg.Callgraph.nodes
  in
  (* [refs] is descending by name; entries list it ascending. *)
  let pe_globals = Array.map List.rev refs in

  (* -- Sites and ops, in forward traversal order ----------------------- *)
  let calls = Array.map (fun pid -> (summary pid).Summary.ps_calls) pcg.Callgraph.nodes in
  let site_base = Array.make (n + 1) 0 in
  let n_ops = ref 0 in
  for i = 0 to n - 1 do
    site_base.(i + 1) <- site_base.(i) + List.length calls.(i);
    List.iter
      (fun (c : Summary.call_summary) ->
        n_ops := !n_ops + Array.length c.Summary.cs_args)
      calls.(i)
  done;
  let n_sites = site_base.(n) and n_ops = !n_ops in
  let op_target = Array.make n_ops 0 and op_src = Array.make n_ops (-1) in
  let op_word = Array.make n_ops P.bot and op_box = Array.make n_ops Lattice.Bot in
  let op_site = Array.make n_ops 0 in
  let site_op = Array.make (n_sites + 1) 0 in
  let site_ids () =
    if n_sites = 0 then [||] else Array.make n_sites pcg.Callgraph.nodes.(0)
  in
  let site_caller = site_ids () and site_callee = site_ids () in
  let op = ref 0 and site = ref 0 in
  Array.iteri
    (fun caller cs ->
      let caller_id = pcg.Callgraph.nodes.(caller) in
      List.iter
        (fun (c : Summary.call_summary) ->
          let s = !site in
          let callee_id = Callgraph.proc_id_exn pcg c.Summary.cs_callee in
          let callee = (callee_id :> int) in
          site_op.(s) <- !op;
          site_caller.(s) <- caller_id;
          site_callee.(s) <- callee_id;
          Array.iteri
            (fun j arg ->
              let o = !op in
              op_target.(o) <- fp_base.(callee) + j;
              op_site.(o) <- s;
              (match arg with
              | Summary.Alit v ->
                  op_word.(o) <- Context.censor_w ctx (P.of_value v);
                  op_box.(o) <- Context.censor ctx (Lattice.Const v)
              | Summary.Aglobal g ->
                  let w, v = global_op consts g in
                  op_word.(o) <- w;
                  op_box.(o) <- v
              | Summary.Aformal i ->
                  if
                    not
                      (Modref.formal_modified_at ctx.Context.modref caller_id
                         i)
                  then op_src.(o) <- fp_base.(caller) + i
              | Summary.Alocal _ | Summary.Aexpr -> ());
              incr op)
            c.Summary.cs_args;
          incr site)
        cs)
    calls;
  site_op.(n_sites) <- n_ops;
  let t =
    {
      ctx; n_formals; fp_base; slot_proc; op_target; op_src; op_word; op_box;
      op_site; by_src_start = [||]; by_src = [||]; site_base; site_op;
      site_caller; site_callee; consts; refs; pe_globals;
      values = Array.make n_slots P.top;
      scratch = Array.make n_slots P.top;
      bound = Bytes.make n_ops '\000';
      queue = [||];
      site_mark = Bytes.make n_sites '\000';
      last = None;
    }
  in
  index_by_src t;
  t

(* -- The pass ----------------------------------------------------------- *)

(* One forward traversal over the ops, then the lowering worklist, into
   [t.scratch]; the paper's meet procedure and [fp_bind] relation.  A
   pass-through counts only if the caller's formal is constant when its op
   is visited, so the pass always runs in full, in order. *)
let pass (t : table) : int array =
  let values = t.scratch in
  Array.fill values 0 (Array.length values) P.top;
  Bytes.fill t.bound 0 (Bytes.length t.bound) '\000';
  let qhead = ref 0 and qtail = ref 0 in
  let lowerings = ref 0 in
  (* Schedule everything bound to slot [k] so far. *)
  let schedule k =
    for x = t.by_src_start.(k) to t.by_src_start.(k + 1) - 1 do
      let o = t.by_src.(x) in
      if Bytes.unsafe_get t.bound o <> '\000' then begin
        t.queue.(!qtail) <- t.op_target.(o);
        incr qtail
      end
    done
  in
  (* [meet k w]: lowering a formal that was not already ⊥ down to ⊥
     schedules everything bound to it. *)
  let meet k w =
    let orig = values.(k) in
    let merged = P.meet orig w in
    if merged <> orig then begin
      incr lowerings;
      values.(k) <- merged;
      if merged = P.bot && orig <> P.bot then schedule k
    end
  in
  for o = 0 to Array.length t.op_target - 1 do
    let src = t.op_src.(o) in
    if src < 0 then meet t.op_target.(o) t.op_word.(o)
    else begin
      let w = values.(src) in
      if P.is_const w then begin
        Bytes.unsafe_set t.bound o '\001';
        meet t.op_target.(o) w
      end
      else meet t.op_target.(o) P.bot
    end
  done;
  (* Drain the lowering worklist (pass-through formals that were constant
     and have since been lowered). *)
  while !qhead < !qtail do
    let k = t.queue.(!qhead) in
    incr qhead;
    if values.(k) <> P.bot then begin
      incr lowerings;
      values.(k) <- P.bot;
      schedule k
    end
  done;
  Trace.add c_pops !qhead;
  Trace.add c_lowerings !lowerings;
  t.scratch <- t.values;
  t.values <- values;
  values

(* Equal boxed literals, bit for bit. *)
let same_literal (a : Lattice.t) (b : Lattice.t) =
  match (a, b) with
  | Lattice.Const (Value.Real x), Lattice.Const (Value.Real y) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Lattice.equal a b

(* -- Assembly ----------------------------------------------------------- *)

let entry (t : table) values p : Solution.proc_entry =
  let base = t.fp_base.(p) in
  {
    Solution.pe_formals =
      Array.init t.n_formals.(p) (fun i ->
          let w = values.(base + i) in
          (* A formal nothing was ever propagated to (its procedure has no
             processed call sites) is not a constant. *)
          if w = P.top then Lattice.Bot else P.to_t w);
    pe_globals = t.pe_globals.(p);
  }

(* The record's word for a pass-through of a slot holding [w]: its final
   constant status (recomputed after convergence, so never stale). *)
let arg_word_of w = if P.is_const w then w else P.bot

let cs_of (t : table) s = s - t.site_base.((t.site_caller.(s) :> int))

let record (t : table) values s : Solution.callsite_record =
  let o0 = t.site_op.(s) in
  {
    Solution.cr_caller = t.site_caller.(s);
    cr_cs_index = cs_of t s;
    cr_callee = t.site_callee.(s);
    cr_executable = true;
    cr_args =
      Array.init (t.site_op.(s + 1) - o0) (fun j ->
          let o = o0 + j in
          let src = t.op_src.(o) in
          if src < 0 then t.op_box.(o) else P.to_t (arg_word_of values.(src)));
    cr_globals = t.refs.((t.site_callee.(s) :> int));
  }

let finish (t : table) ~entries ~call_index : Solution.t =
  let db = t.ctx.Context.pcg.Callgraph.db in
  let sol =
    Solution.of_rows ~method_name ~db ~entries ~call_index ~scc_runs:0
  in
  t.last <- Some sol;
  sol

(* The whole solution from the last pass. *)
let assemble (t : table) : Solution.t =
  let db = t.ctx.Context.pcg.Callgraph.db in
  let values = t.values in
  let call_index =
    Prog.tbl_init db (fun pid ->
        let p = (pid :> int) in
        Array.init (t.site_base.(p + 1) - t.site_base.(p)) (fun k ->
            Some (record t values (t.site_base.(p) + k))))
  in
  finish t
    ~entries:(Prog.tbl_init db (fun pid -> entry t values (pid :> int)))
    ~call_index

(** Compile [ctx] and solve it; the table stays valid for {!update} as long
    as every later edit keeps the PCG. *)
let solve_table (ctx : Context.t) : table * Solution.t =
  Trace.next_epoch ();
  Trace.span "fi:solve" @@ fun () ->
  let t = compile ctx in
  ignore (pass t);
  (t, assemble t)

let solve (ctx : Context.t) : Solution.t = snd (solve_table ctx)

(* -- Re-solving after edits --------------------------------------------- *)

(* Queue site [s] for a fresh record, once. *)
let mark (t : table) marked s =
  if Bytes.get t.site_mark s = '\000' then begin
    Bytes.set t.site_mark s '\001';
    marked := s :: !marked
  end

(* [f s o arg] for every argument [arg] of procedure [p]'s call sites, by
   site [s] and op [o], read from its current summary. *)
let iter_args (t : table) p f =
  let pcg = t.ctx.Context.pcg in
  let rec go s = function
    | [] -> ()
    | (c : Summary.call_summary) :: calls ->
        let args = c.Summary.cs_args in
        for j = 0 to Array.length args - 1 do
          f s (t.site_op.(s) + j) args.(j)
        done;
        go (s + 1) calls
  in
  go t.site_base.(p)
    (Summary.find t.ctx.Context.summaries
       (Callgraph.proc_name pcg pcg.Callgraph.nodes.(p)))
      .Summary.ps_calls

(* Patch procedure [pid]'s literal words.  A record is rebuilt when a word
   moved, and also when only a literal's spelling did: equal words can box
   different literals (-0.0 and 0.0). *)
let patch_literals (t : table) marked (pid : Prog.Proc.id) =
  iter_args t (pid :> int) (fun s o -> function
    | Summary.Alit v ->
        let w = Context.censor_w t.ctx (P.of_value v) in
        let box = Context.censor t.ctx (Lattice.Const v) in
        if w <> t.op_word.(o) || not (same_literal box t.op_box.(o)) then begin
          t.op_word.(o) <- w;
          t.op_box.(o) <- box;
          mark t marked s
        end
    | Summary.Aglobal _ | Summary.Aformal _ | Summary.Alocal _ | Summary.Aexpr
      ->
        ())

let same_globals =
  List.equal (fun (g, v) (h, w) -> Prog.Var.equal g h && Lattice.equal v w)

(* Does the rendered list [old] name exactly the globals [vars]? *)
let rec same_vars (vars : Fsicp_cfg.Ir.var list) old =
  match (vars, old) with
  | [], [] -> true
  | gv :: vars, (g, _) :: old ->
      Prog.Var.equal gv.Fsicp_cfg.Ir.vid g && same_vars vars old
  | _ :: _, [] | [], _ :: _ -> false

(* Re-derive, under [t.ctx]'s MOD/REF, every part of the table MOD/REF
   decides; queue the sites whose records it touches and return the
   procedures whose entry globals changed. *)
let rederive_modref (t : table) marked =
  let modref = t.ctx.Context.modref in
  let consts = program_constants t.ctx in
  let consts_moved = not (same_globals consts t.consts) in
  t.consts <- consts;
  (* The [Aglobal] words over the program constants, and whether each
     [Aformal] op may pass: the caller may not modify that formal. *)
  let moved = ref false in
  Array.iteri
    (fun p pid ->
      iter_args t p (fun s o -> function
        | Summary.Aglobal g when consts_moved ->
            let w, v = global_op consts g in
            if w <> t.op_word.(o) then begin
              t.op_word.(o) <- w;
              t.op_box.(o) <- v;
              mark t marked s
            end
        | Summary.Aformal i ->
            let src =
              if Modref.formal_modified_at modref pid i then -1
              else t.fp_base.(p) + i
            in
            if src <> t.op_src.(o) then begin
              t.op_src.(o) <- src;
              moved := true;
              mark t marked s
            end
        | Summary.Alit _ | Summary.Aglobal _ | Summary.Alocal _
        | Summary.Aexpr ->
            ()))
    t.ctx.Context.pcg.Callgraph.nodes;
  if !moved then index_by_src t;
  (* REF-closure globals: an entry's, and those of every call to it. *)
  let dirty = ref [] in
  Array.iteri
    (fun p pid ->
      let vars = Modref.call_global_refs_at modref pid in
      let old = t.refs.(p) in
      if consts_moved || not (same_vars vars old) then begin
        let refs = render consts vars in
        if not (same_globals refs old) then begin
          t.refs.(p) <- refs;
          t.pe_globals.(p) <- List.rev refs;
          dirty := p :: !dirty;
          Array.iter
            (fun (e : Callgraph.edge) ->
              mark t marked
                (t.site_base.((e.Callgraph.caller :> int)) + e.Callgraph.cs_index))
            (Callgraph.in_edges t.ctx.Context.pcg pid)
        end
      end)
    t.ctx.Context.pcg.Callgraph.nodes;
  !dirty

(* Run the pass again and publish against the last solution: rebuild the
   entries of [dirty] and of every procedure a slot of which moved, and
   the records of the [marked] sites and of every pass-through of a slot
   whose record word moved; share every other entry and call-record row.
   Also returns the PCG edge of every rebuilt record whose value differs
   from the previous one. *)
let republish (t : table) marked dirty : Solution.t * Callgraph.edge list =
  let pcg = t.ctx.Context.pcg in
  let prev =
    match t.last with
    | Some sol -> sol
    | None -> invalid_arg "Fi_icp.update: table never solved"
  in
  let old = t.values in
  let values = pass t in
  (* Slots whose word moved: their entries, and the records of every
     pass-through of them whose record word moved. *)
  let dirty_procs = ref dirty in
  for k = 0 to Array.length values - 1 do
    if values.(k) <> old.(k) then begin
      (* A procedure's slots are contiguous, so one check dedups. *)
      let q = t.slot_proc.(k) in
      (match !dirty_procs with
      | q' :: _ when q' = q -> ()
      | _ -> dirty_procs := q :: !dirty_procs);
      if arg_word_of values.(k) <> arg_word_of old.(k) then
        for x = t.by_src_start.(k) to t.by_src_start.(k + 1) - 1 do
          mark t marked t.op_site.(t.by_src.(x))
        done
    end
  done;
  let entries =
    if !dirty_procs = [] then prev.Solution.entries
    else begin
      let e = Prog.Proc.Tbl.copy prev.Solution.entries in
      List.iter
        (fun q -> Prog.Proc.Tbl.set e pcg.Callgraph.nodes.(q) (entry t values q))
        !dirty_procs;
      e
    end
  in
  (* Rebuild the marked records into fresh copies of their callers' rows;
     every other row is shared. *)
  let call_index =
    if !marked = [] then prev.Solution.call_index
    else Prog.Proc.Tbl.copy prev.Solution.call_index
  in
  let edges = ref [] in
  List.iter
    (fun s ->
      let caller = t.site_caller.(s) in
      let cs_index = cs_of t s in
      let old_row = Prog.Proc.Tbl.get prev.Solution.call_index caller in
      let row = Prog.Proc.Tbl.get call_index caller in
      let row =
        if row != old_row then row
        else begin
          let row = Array.copy row in
          Prog.Proc.Tbl.set call_index caller row;
          row
        end
      in
      let r = record t values s in
      row.(cs_index) <- Some r;
      (match old_row.(cs_index) with
      | Some r0 when Solution.record_equal r0 r -> ()
      | Some _ | None ->
          edges := Callgraph.edge_at pcg ~caller ~cs_index :: !edges);
      Bytes.set t.site_mark s '\000')
    !marked;
  (finish t ~entries ~call_index, !edges)

(** Re-solve after edits of the procedures [edited] that keep the PCG.
    Without [ctx], the edits were shape-preserving and [t]'s context
    already holds their summaries ({!Context.replace_proc}).  With [ctx],
    a context rebuilt over [t]'s PCG, [t] moves to it and re-derives what
    MOD/REF decides there: which pass-throughs may pass, the program
    constants and the REF-closure global lists.  Either way the edited
    procedures' literal words are patched and the pass re-runs in full,
    which keeps the paper's order-dependent pass-through rule exact.  Only
    the entries and call records whose values (or literal spellings)
    changed are rebuilt; everything else is shared with the previous
    solution.  Also returns the PCG edge of every call record whose value
    changed. *)
let update ?ctx (t : table) (edited : Prog.Proc.id list) :
    Solution.t * Callgraph.edge list =
  Trace.next_epoch ();
  Trace.span "fi:update" @@ fun () ->
  let marked = ref [] in
  let dirty =
    match ctx with
    | None -> []
    | Some ctx ->
        t.ctx <- ctx;
        rederive_modref t marked
  in
  List.iter (patch_literals t marked) edited;
  republish t marked dirty
