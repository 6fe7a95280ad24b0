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
    cheap sound fallback the flow-sensitive method uses on back edges. *)

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

   Everything the pass reads that a shape-preserving edit cannot change is
   computed once per context: the formal slot numbering, the program
   constants, every entry's and every call record's global list, and one
   op per call-site argument in forward traversal order.  An op either
   meets its target slot with a fixed word (a literal, a program-constant
   global, or ⊥ for anything else — including a pass-through of a formal
   the caller may modify), or passes a caller slot through.  Only literal
   words depend on procedure bodies; {!update} patches them. *)

type table = {
  ctx : Context.t;
  n_formals : int array;  (** per procedure id *)
  fp_base : int array;
      (** formal [i] of procedure [p] is slot [fp_base.(p) + i];
          length [n + 1] *)
  slot_proc : int array;  (** owning procedure id of each slot *)
  op_target : int array;  (** slot each op meets *)
  op_src : int array;  (** caller slot of a pass-through op, [-1] if fixed *)
  op_word : int array;  (** packed word of a fixed op *)
  op_box : Lattice.t array;  (** boxed record value of a fixed op *)
  op_site : int array;  (** call site of each op *)
  by_src_start : int array;
  by_src : int array;
      (** pass-through ops by source slot, ascending: slot [k]'s are
          [by_src.(by_src_start.(k) .. by_src_start.(k+1) - 1)] *)
  site_base : int array;
      (** procedure [p]'s call sites are [site_base.(p) ..
          site_base.(p+1) - 1], in summary order, so site [s] of caller [p]
          has [cs_index] [s - site_base.(p)]; length [n + 1] *)
  site_op : int array;  (** site [s]'s argument ops start at [site_op.(s)] *)
  site_caller : Prog.Proc.id array;
  site_callee : Prog.Proc.id array;
  site_globals : (Prog.Var.id * Lattice.t) list array;
  pe_globals : (Prog.Var.id * Lattice.t) list array;  (** per procedure *)
  no_scc : Scc.result option Prog.Proc.Tbl.t;  (** FI runs no SCC *)
  (* Run state: final words of the last run, a scratch vector for the
     next one, the bound flag of each pass-through op, the lowering queue
     (each bound op is queued at most once: its source slot falls to ⊥
     once), per-site marks for {!update} (all clear between updates) and
     the last solution. *)
  mutable values : int array;
  mutable scratch : int array;
  bound : Bytes.t;
  queue : int array;
  site_mark : Bytes.t;
  mutable last : Solution.t option;
}

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
  let modified =
    Modref.globals_modified_anywhere ctx.Context.modref
      ~main:ctx.Context.prog.Ast.main
  in
  let program_constants =
    Context.blockdata_env ctx
    |> List.filter (fun ((g : Prog.Var.id), v) ->
           Lattice.is_const v && not (List.mem (Prog.Var.name g) modified))
  in
  let global_const (g : Prog.Var.id) = List.assoc_opt g program_constants in
  (* Program-wide global constants hold at every entry and every call
     site; restrict to the globals the callee may reference. *)
  let refs =
    Array.init n (fun i ->
        Modref.call_global_refs ctx.Context.modref
          ~callee:(Prog.proc_name db pcg.Callgraph.nodes.(i))
        |> List.map (fun (gv : Fsicp_cfg.Ir.var) ->
               ( gv.Fsicp_cfg.Ir.vid,
                 match global_const gv.Fsicp_cfg.Ir.vid with
                 | Some v -> v
                 | None -> Lattice.Bot )))
  in
  let pe_globals =
    Array.map (List.sort (fun (a, _) (b, _) -> Prog.Var.compare a b)) refs
  in

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
  let site_globals = Array.make n_sites [] in
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
          site_globals.(s) <- refs.(callee);
          Array.iteri
            (fun j arg ->
              let o = !op in
              op_target.(o) <- fp_base.(callee) + j;
              op_site.(o) <- s;
              let fixed w v =
                op_word.(o) <- w;
                op_box.(o) <- v
              in
              (match arg with
              | Summary.Alit v ->
                  fixed
                    (Context.censor_w ctx (P.of_value v))
                    (Context.censor ctx (Lattice.Const v))
              | Summary.Aglobal g -> (
                  match global_const (Prog.Var.intern g) with
                  | Some v -> fixed (P.of_t v) v
                  | None -> ())
              | Summary.Aformal i ->
                  if not (Modref.formal_modified ctx.Context.modref
                            (Prog.proc_name db caller_id) i)
                  then op_src.(o) <- fp_base.(caller) + i
              | Summary.Alocal _ | Summary.Aexpr -> ());
              incr op)
            c.Summary.cs_args;
          incr site)
        cs)
    calls;
  site_op.(n_sites) <- n_ops;
  (* Pass-through ops grouped by source slot (counting sort, stable). *)
  let by_src_start = Array.make (n_slots + 1) 0 in
  Array.iter
    (fun k -> if k >= 0 then by_src_start.(k + 1) <- by_src_start.(k + 1) + 1)
    op_src;
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
    op_src;
  {
    ctx; n_formals; fp_base; slot_proc; op_target; op_src; op_word; op_box;
    op_site; by_src_start; by_src; site_base; site_op; site_caller;
    site_callee; site_globals; pe_globals; no_scc = Prog.tbl db None;
    values = Array.make n_slots P.top;
    scratch = Array.make n_slots P.top;
    bound = Bytes.make n_ops '\000';
    queue = Array.make (Array.length by_src) 0;
    site_mark = Bytes.make n_sites '\000';
    last = None;
  }

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
    cr_globals = t.site_globals.(s);
  }

(* A caller's records, in summary order, read back from its index row. *)
let records_of row = Array.fold_right (fun r acc -> Option.get r :: acc) row []

let finish (t : table) ~entries ~records ~call_index : Solution.t =
  let db = t.ctx.Context.pcg.Callgraph.db in
  let sol =
    Solution.of_index ~method_name ~db ~entries ~records ~call_index
      ~scc_runs:0 ~scc_results:t.no_scc
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
    ~records:(Prog.Proc.Tbl.map records_of call_index)
    ~call_index

(** Compile [ctx] and solve it; the table stays valid for {!update} as long
    as every later edit of [ctx] is shape-preserving. *)
let solve_table (ctx : Context.t) : table * Solution.t =
  Trace.next_epoch ();
  Trace.span "fi:solve" @@ fun () ->
  let t = compile ctx in
  ignore (pass t);
  (t, assemble t)

let solve (ctx : Context.t) : Solution.t = snd (solve_table ctx)

(** Re-solve after a shape-preserving edit of procedure [pid], whose new
    summary [t]'s context already holds: patch the literal words of its
    call sites, re-run the pass in full, and rebuild only the entries and
    call records whose words (or literal spellings) changed — every other
    entry, record list and call-index row is shared with the previous
    solution.  Also returns the PCG edge of every call record whose value
    changed. *)
let update (t : table) (pid : Prog.Proc.id) : Solution.t * Callgraph.edge list
    =
  Trace.next_epoch ();
  Trace.span "fi:update" @@ fun () ->
  let ctx = t.ctx in
  let pcg = ctx.Context.pcg in
  let prev =
    match t.last with
    | Some sol -> sol
    | None -> invalid_arg "Fi_icp.update: table never solved"
  in
  (* Sites to rebuild, marked '\001', or '\002' when the record's value
     changed. *)
  let marked = ref [] in
  let mark s c =
    let m = Bytes.get t.site_mark s in
    if m = '\000' then marked := s :: !marked;
    if m <> '\002' then Bytes.set t.site_mark s (if c then '\002' else '\001')
  in
  (* Patch the edited procedure's literal words.  A record is rebuilt when
     a word moved, and also when only a literal's spelling did: equal
     words can box different literals (-0.0 and 0.0). *)
  let p = (pid :> int) in
  let calls =
    (Summary.find ctx.Context.summaries (Callgraph.proc_name pcg pid))
      .Summary.ps_calls
  in
  List.iteri
    (fun k (c : Summary.call_summary) ->
      let s = t.site_base.(p) + k in
      let moved = ref false and respelled = ref false in
      Array.iteri
        (fun j arg ->
          match arg with
          | Summary.Alit v ->
              let o = t.site_op.(s) + j in
              let w = Context.censor_w ctx (P.of_value v) in
              let box = Context.censor ctx (Lattice.Const v) in
              if w <> t.op_word.(o) then moved := true
              else if not (same_literal box t.op_box.(o)) then
                respelled := true;
              t.op_word.(o) <- w;
              t.op_box.(o) <- box
          | Summary.Aglobal _ | Summary.Aformal _ | Summary.Alocal _
          | Summary.Aexpr ->
              ())
        c.Summary.cs_args;
      if !moved || !respelled then mark s !moved)
    calls;
  let old = t.values in
  let values = pass t in
  (* Slots whose word moved: their entries, and the records of every
     pass-through of them whose record word moved. *)
  let dirty_procs = ref [] in
  for k = 0 to Array.length values - 1 do
    if values.(k) <> old.(k) then begin
      (* A procedure's slots are contiguous, so one check dedups. *)
      let q = t.slot_proc.(k) in
      (match !dirty_procs with
      | q' :: _ when q' = q -> ()
      | _ -> dirty_procs := q :: !dirty_procs);
      if arg_word_of values.(k) <> arg_word_of old.(k) then
        for x = t.by_src_start.(k) to t.by_src_start.(k + 1) - 1 do
          mark t.op_site.(t.by_src.(x)) true
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
  let call_index, records =
    if !marked = [] then (prev.Solution.call_index, prev.Solution.records)
    else
      ( Prog.Proc.Tbl.copy prev.Solution.call_index,
        Prog.Proc.Tbl.copy prev.Solution.records )
  in
  let callers = ref [] and edges = ref [] in
  List.iter
    (fun s ->
      let caller = t.site_caller.(s) in
      let row = Prog.Proc.Tbl.get call_index caller in
      let row =
        if row != Prog.Proc.Tbl.get prev.Solution.call_index caller then row
        else begin
          let row = Array.copy row in
          Prog.Proc.Tbl.set call_index caller row;
          callers := caller :: !callers;
          row
        end
      in
      row.(cs_of t s) <- Some (record t values s);
      if Bytes.get t.site_mark s = '\002' then
        edges := Callgraph.edge_at pcg ~caller ~cs_index:(cs_of t s) :: !edges;
      Bytes.set t.site_mark s '\000')
    !marked;
  List.iter
    (fun caller ->
      Prog.Proc.Tbl.set records caller
        (records_of (Prog.Proc.Tbl.get call_index caller)))
    !callers;
  (finish t ~entries ~records ~call_index, !edges)
