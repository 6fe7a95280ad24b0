(** Sparse Conditional Constant propagation (Wegman & Zadeck, TOPLAS 1991)
    over the SSA form of {!Fsicp_ssa.Ssa}.

    This is the paper's intraprocedural engine: "The routine is an
    implementation of the Sparse Conditional Constant (SCC) algorithm of
    Wegman and Zadeck, and is built upon an implementation of SSA data-flow
    analysis.  This is an optimistic algorithm that discards unreachable
    code during the propagation, which may permit the identification of
    additional constants."

    Two worklists drive the analysis: a {e flow} worklist of CFG edges whose
    executability was just discovered, and an {e SSA} worklist of def–use
    edges whose source value just lowered.  Conditional branches with a
    known-constant condition only mark one successor edge executable, which
    is how unreachable code is pruned and how the flow-sensitive ICP of the
    paper finds constants that no jump-function method can (paper Figure 1).

    Interprocedural hooks:
    - [entry_env] gives the lattice value of every variable's version-0
      (procedure entry) name — formals and globals constant on entry is
      exactly what the interprocedural methods establish;
    - [call_def_value] gives the post-call value of each variable a call
      may define (always bottom unless the return-constants extension
      supplies a summary).

    The engine is a flat integer kernel over {e packed} lattice words
    ({!Lattice.P}): one immediate [int] per SSA name, def–use chains walked
    through the CSR arrays of {!Ssa.proc}, edge executability one bit per
    dense edge id, both worklists int stacks of dense edge/site ids with
    on-worklist dedup marks, and all scratch from the calling domain's
    epoch-stamped {!scratch} record — the steady-state loop allocates
    nothing, and lattice meets/compares are single integer operations.
    Transfer evaluation is closure-free: the per-run state lives in one
    {!kstate} record threaded through top-level visit functions, dispatch
    over sites decodes the tagged [site_code] ints directly.

    Both oracle hooks are resolved {e once} per run into dense packed
    vectors ([entry] over [entry_names], [cdv] over the flat call-def
    numbering), written into per-domain scratch; since the kernel's output
    is a pure function of [(proc, entry, cdv)], those two vectors also key
    a per-procedure memo (the value-contexts idea of Padhye & Khedker): a
    re-run with equal vectors returns the cached {!result} without visiting
    a single block — and without allocating the vectors, which are only
    copied out of scratch on a memo miss. *)

open Fsicp_lang
open Fsicp_cfg
open Fsicp_ssa
module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Kernel work counters, all jobs-invariant: the SCC fixpoint is unique
   and each procedure is solved from a fully-resolved entry vector, so the
   number of block/site visits and edge activations does not depend on
   scheduling.  [scc.block_visits] is the memo acceptance gate: a warm
   re-solve of an unchanged program must not advance it.
   [scc.memo_evictions] counts contexts pushed out of a full memo — a
   nonzero value on a warm path means the working set exceeds the memo
   capacity and re-solves are structural, not a bug.  The hot loops tally
   into locals and flush once per kernel run. *)
let c_block_visits = Trace.counter "scc.block_visits"
let c_site_visits = Trace.counter "scc.site_visits"
let c_edge_marks = Trace.counter "scc.edge_marks"
let c_runs = Trace.counter "scc.runs"
let c_memo_hits = Trace.counter "scc.memo_hits"
let c_memo_evictions = Trace.counter "scc.memo_evictions"

type config = {
  entry_env : Ir.var -> int;
      (** packed entry value per variable; must be [Lattice.P.bot] or a
          constant word for soundness (top would claim dead code on all
          inputs) *)
  call_def_value : callee:string -> Ir.var -> int;
      (** packed value of a call-defined variable after the call *)
}

let default_config =
  { entry_env = (fun _ -> P.bot); call_def_value = (fun ~callee:_ _ -> P.bot) }

(** Entry environment from an association list; unlisted variables are
    bottom (unknown), except temporaries which never carry entry values.
    The list is indexed once into an int-keyed table ({!Ir.Var.slot_key}),
    so each query is an O(1) integer-hash lookup rather than a linear
    scan.  First binding wins, as with [List.find_opt]. *)
let env_of_list (l : (Ir.var * Value.t) list) : Ir.var -> int =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (v, value) ->
      let k = Ir.Var.slot_key v in
      if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k (P.of_value value))
    l;
  fun v ->
    match Hashtbl.find_opt tbl (Ir.Var.slot_key v) with
    | Some w -> w
    | None -> P.bot

type result = {
  proc : Ssa.proc;  (** the analysed SSA *)
  values : int array;  (** packed lattice word per SSA name id *)
  block_executable : bool array;
  edge_exec : Bytes.t;  (** bitset over dense edge ids *)
}

let[@inline] bit_get bytes i =
  Char.code (Bytes.unsafe_get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] bit_set bytes i =
  let j = i lsr 3 in
  Bytes.unsafe_set bytes j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bytes j) lor (1 lsl (i land 7))))

(* Packed operand value against a values vector — shared by the kernel and
   the result accessors.  [Oconst (Int _)] encodes without allocating;
   [Oconst (Real _)] costs an interner lookup, which only constant-real
   operands of revisited sites pay. *)
let[@inline] operand_word (values : int array) (o : Ssa.operand) : int =
  match o with
  | Ssa.Oconst v -> P.of_value v
  | Ssa.Oname n -> values.(n.Ssa.id)

let operand_value (r : result) (o : Ssa.operand) : Lattice.t =
  match o with
  | Ssa.Oconst v -> Lattice.Const v
  | Ssa.Oname n -> P.to_t r.values.(n.Ssa.id)

(** Is dense edge [e] executable? *)
let edge_bit (r : result) (e : int) : bool = bit_get r.edge_exec e

(* -- Per-domain scratch ---------------------------------------------- *)

(* A growable int stack whose backing array persists across runs. *)
type stack = { mutable sbuf : int array; mutable slen : int }

(* Everything a run needs that does not outlive it, one record per domain
   in [Domain.DLS], so a run on any domain gets private scratch with no
   locking and no allocation once the record has grown to the largest
   procedure it has seen:

   - [s_entry]/[s_cdv], the resolved oracle vectors, written fresh at the
     top of every [run] and only copied into exact-length arrays on a memo
     miss (the copies escape into the memo), so a warm run resolves and
     probes without allocating;
   - [stamps], the kernel's on-worklist dedup marks: edge [e] at slot [e],
     site [s] at slot [n_edges + s].  A slot is marked iff its stamp equals
     [epoch], so bumping [epoch] at the start of a kernel run clears every
     mark in O(1).  Stamps start at 0 and the first run's epoch is 1, so a
     fresh (or freshly grown) stamp array reads as all-clear;
   - [flow]/[ssa], the flow worklist of dense edge ids and the SSA
     worklist of dense site ids, emptied at the start of a run. *)
type scratch = {
  mutable s_entry : int array;
  mutable s_cdv : int array;
  mutable epoch : int;
  mutable stamps : int array;
  flow : stack;
  ssa : stack;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        s_entry = Array.make 64 0;
        s_cdv = Array.make 64 0;
        epoch = 0;
        stamps = Array.make 1024 0;
        flow = { sbuf = Array.make 256 0; slen = 0 };
        ssa = { sbuf = Array.make 256 0; slen = 0 };
      })

let ensure arr n =
  if Array.length arr >= n then arr
  else Array.make (max n (2 * Array.length arr)) 0

let[@inline] push s x =
  let cap = Array.length s.sbuf in
  if s.slen = cap then begin
    let buf = Array.make (2 * cap) 0 in
    Array.blit s.sbuf 0 buf 0 cap;
    s.sbuf <- buf
  end;
  s.sbuf.(s.slen) <- x;
  s.slen <- s.slen + 1

(* Undefined on an empty stack; the kernel checks [slen] first. *)
let[@inline] pop s =
  s.slen <- s.slen - 1;
  s.sbuf.(s.slen)

let[@inline] mark sc i = sc.stamps.(i) <- sc.epoch
let[@inline] unmark sc i = sc.stamps.(i) <- 0
let[@inline] marked sc i = sc.stamps.(i) = sc.epoch

(* Start a kernel run over [n] mark slots: clear every mark and both
   worklists. *)
let start_run sc n =
  sc.epoch <- sc.epoch + 1;
  sc.stamps <- ensure sc.stamps n;
  sc.flow.slen <- 0;
  sc.ssa.slen <- 0

(* -- Oracle resolution ----------------------------------------------- *)

(* The entry vector: one packed word per [entry_names] position.
   Version-0 temps are never read before being written, so their entry
   value is pinned to bottom regardless of the environment. *)
let resolve_entry config (p : Ssa.proc) (dst : int array) : unit =
  let en = p.Ssa.entry_names in
  for k = 0 to Array.length en - 1 do
    let ((v : Ir.var), _) = en.(k) in
    dst.(k) <-
      (match v.Ir.vkind with
      | Ir.Temp -> P.bot
      | Ir.Local | Ir.Formal _ | Ir.Global -> config.entry_env v)
  done

(* The call-def vector: one packed word per (call, def) pair in the flat
   [c_def_base] numbering.  Resolving unreachable calls too is sound — the
   oracles are pure lookups and the kernel only reads slots of calls it
   actually visits. *)
let resolve_cdv config (p : Ssa.proc) (dst : int array) : unit =
  for i = 0 to p.Ssa.n_call_defs - 1 do
    dst.(i) <- P.bot
  done;
  let calls = p.Ssa.calls in
  for i = 0 to Array.length calls - 1 do
    let _, _, (c : Ssa.call) = calls.(i) in
    let defs = c.Ssa.c_defs in
    for k = 0 to Array.length defs - 1 do
      let (base : Ir.var), _ = defs.(k) in
      dst.(c.Ssa.c_def_base + k) <-
        config.call_def_value ~callee:c.Ssa.c_callee base
    done
  done

(* -- The kernel ------------------------------------------------------- *)

(* All per-run kernel state in one record, so the visit functions are
   ordinary top-level functions (no per-run closure tree): one small
   allocation per kernel run instead of a dozen captured environments. *)
type kstate = {
  kp : Ssa.proc;
  kv : int array;  (* packed lattice word per SSA name *)
  kee : Bytes.t;  (* edge-exec bitset *)
  kcdv : int array;  (* packed call-def vector *)
  ksc : scratch;  (* dedup marks and both worklists *)
  ksm : int;  (* site dedup-mark base: edges mark slots [0, ksm) *)
  mutable kvisits : int;
  mutable ksites : int;
  mutable kmarks : int;
}

let lower st (n : Ssa.name) (w : int) =
  let id = n.Ssa.id in
  let old = st.kv.(id) in
  let merged = P.meet old w in
  if merged <> old then begin
    (* Monotone: values only move down the lattice. *)
    st.kv.(id) <- merged;
    let p = st.kp in
    for k = p.Ssa.use_offsets.(id) to p.Ssa.use_offsets.(id + 1) - 1 do
      let s = p.Ssa.use_sites.(k) in
      (* A site queued twice is visited once per drain. *)
      if not (marked st.ksc (st.ksm + s)) then begin
        mark st.ksc (st.ksm + s);
        push st.ksc.ssa s
      end
    done
  end

let visit_phi st b pi =
  let ph = st.kp.Ssa.blocks.(b).Ssa.phis.(pi) in
  let args = ph.Ssa.p_args and edges = ph.Ssa.p_edges in
  let w = ref P.top in
  for k = 0 to Array.length args - 1 do
    if bit_get st.kee edges.(k) then begin
      let _, (n : Ssa.name) = args.(k) in
      w := P.meet !w st.kv.(n.Ssa.id)
    end
  done;
  lower st ph.Ssa.p_name !w

let visit_instr st b i =
  match st.kp.Ssa.blocks.(b).Ssa.instrs.(i) with
  | Ssa.Assign (n, rhs) ->
      let w =
        match rhs with
        | Ssa.Copy o -> operand_word st.kv o
        | Ssa.Unop (op, o) -> P.eval_unop op (operand_word st.kv o)
        | Ssa.Binop (op, a, c) ->
            P.eval_binop op (operand_word st.kv a) (operand_word st.kv c)
      in
      lower st n w
  | Ssa.Kill kills ->
      (* The location was possibly written through an alias: unknown. *)
      for k = 0 to Array.length kills - 1 do
        let _, n = kills.(k) in
        lower st n P.bot
      done
  | Ssa.Call c ->
      let defs = c.Ssa.c_defs in
      for k = 0 to Array.length defs - 1 do
        let _, n = defs.(k) in
        lower st n st.kcdv.(c.Ssa.c_def_base + k)
      done
  | Ssa.Print _ -> ()

let mark_edge st e =
  if (not (bit_get st.kee e)) && not (marked st.ksc e) then begin
    st.kmarks <- st.kmarks + 1;
    mark st.ksc e;
    push st.ksc.flow e
  end

let visit_term st b =
  match st.kp.Ssa.blocks.(b).Ssa.term with
  | Ssa.Goto _ -> mark_edge st st.kp.Ssa.edge_base.(b)
  | Ssa.Ret -> ()
  | Ssa.Cond (c, t, f) ->
      let te = st.kp.Ssa.edge_base.(b) in
      let fe = if t = f then te else te + 1 in
      let w = operand_word st.kv c in
      (* A copy condition is some unknown entry value: like ⊥, both arms
         may run (the copy-constant method never resolves branches). *)
      if w = P.bot || P.is_copy w then begin
        mark_edge st te;
        if fe <> te then mark_edge st fe
      end
      else if w <> P.top then
        (* constant condition: exactly one successor lights up *)
        if P.truthy w then mark_edge st te else mark_edge st fe

let visit_block st b =
  st.kvisits <- st.kvisits + 1;
  let blk = st.kp.Ssa.blocks.(b) in
  for pi = 0 to Array.length blk.Ssa.phis - 1 do
    visit_phi st b pi
  done;
  for i = 0 to Array.length blk.Ssa.instrs - 1 do
    visit_instr st b i
  done;
  visit_term st b

let run_kernel sc (p : Ssa.proc) ~(entry : int array) ~(cdv : int array) :
    result =
  let nblocks = Array.length p.Ssa.blocks in
  (* The result arrays escape into solutions and the memo, so they are
     freshly allocated; only kernel-private scratch comes from [sc]. *)
  let values = Array.make (max 1 p.Ssa.n_names) P.top in
  let block_executable = Array.make nblocks false in
  let edge_exec = Bytes.make ((p.Ssa.n_edges + 8) / 8) '\000' in
  start_run sc (p.Ssa.n_edges + p.Ssa.n_sites);
  let st =
    {
      kp = p;
      kv = values;
      kee = edge_exec;
      kcdv = cdv;
      ksc = sc;
      ksm = p.Ssa.n_edges;
      kvisits = 0;
      ksites = 0;
      kmarks = 0;
    }
  in
  (* Initialise entry names from the pre-resolved entry vector (directly,
     not via [lower]: Top-initialised cells must be allowed to take any
     lattice value), then start at the entry block. *)
  let en = p.Ssa.entry_names in
  for k = 0 to Array.length en - 1 do
    let _, (n : Ssa.name) = en.(k) in
    values.(n.Ssa.id) <- entry.(k)
  done;
  block_executable.(p.Ssa.entry) <- true;
  visit_block st p.Ssa.entry;

  let continue = ref true in
  while !continue do
    if sc.flow.slen > 0 then begin
      let e = pop sc.flow in
      unmark sc e;
      if not (bit_get edge_exec e) then begin
        bit_set edge_exec e;
        let d = p.Ssa.edge_dst.(e) in
        let first_visit = not block_executable.(d) in
        block_executable.(d) <- true;
        if first_visit then visit_block st d
        else begin
          (* Only the phis can change when an extra in-edge lights up. *)
          let blk = p.Ssa.blocks.(d) in
          for pi = 0 to Array.length blk.Ssa.phis - 1 do
            visit_phi st d pi
          done
        end
      end
    end
    else if sc.ssa.slen > 0 then begin
      let s = pop sc.ssa in
      st.ksites <- st.ksites + 1;
      unmark sc (st.ksm + s);
      let code = p.Ssa.site_code.(s) in
      let b = (code lsr 2) land 0xffffffff in
      if block_executable.(b) then begin
        let idx = code lsr 34 in
        match code land 3 with
        | 0 -> visit_phi st b idx
        | 1 -> visit_instr st b idx
        | _ -> visit_term st b
      end
    end
    else continue := false
  done;
  Trace.add c_block_visits st.kvisits;
  Trace.add c_site_visits st.ksites;
  Trace.add c_edge_marks st.kmarks;
  { proc = p; values; block_executable; edge_exec }

(* -- Entry-vector memoization ------------------------------------------ *)

type memo_entry = {
  m_entry : int array;  (* packed, exact length *)
  m_cdv : int array;
  m_result : result;
}

type Ssa.memo += Scc_memo of memo_entry list

(* A handful of contexts per procedure covers every caller in the
   pipeline (one per method sweep); beyond that, oldest entries fall off
   (counted by [scc.memo_evictions]). *)
let memo_capacity = 8

(* Compare an exact-length memo vector against the first [n] slots of an
   (oversized) scratch vector.  Packed-word equality is integer equality. *)
let vec_matches (exact : int array) (scratch : int array) n =
  Array.length exact = n
  &&
  let rec go i = i >= n || (exact.(i) = scratch.(i) && go (i + 1)) in
  go 0

let memo_find (p : Ssa.proc) ~entry ~n_entry ~cdv ~n_cdv =
  match p.Ssa.memo with
  | Scc_memo entries ->
      List.find_opt
        (fun e ->
          vec_matches e.m_entry entry n_entry && vec_matches e.m_cdv cdv n_cdv)
        entries
  | _ -> None

let memo_add (p : Ssa.proc) ~entry ~cdv r =
  let prev = match p.Ssa.memo with Scc_memo es -> es | _ -> [] in
  let entries = { m_entry = entry; m_cdv = cdv; m_result = r } :: prev in
  let entries =
    if List.length entries > memo_capacity then begin
      Trace.incr c_memo_evictions;
      List.filteri (fun i _ -> i < memo_capacity) entries
    end
    else entries
  in
  (* Single-word store of an immutable list: concurrent writers (two
     domains analysing the same proc, which no solver schedules) could at
     worst drop each other's entry, never corrupt one. *)
  p.Ssa.memo <- Scc_memo entries

(** Drop every memoized entry-vector context of one procedure.  The next
    {!run} on it re-propagates from scratch whatever its entry environment
    is; the incremental engine calls this when a procedure's SSA is about
    to be rebuilt, and benchmarks use it (via [Context.reset_scc_memos])
    to measure the warm solver core. *)
let invalidate_memo (p : Ssa.proc) = p.Ssa.memo <- Ssa.No_memo

(** Number of memoized entry-vector contexts a procedure currently holds. *)
let memo_size (p : Ssa.proc) =
  match p.Ssa.memo with Scc_memo entries -> List.length entries | _ -> 0

(** Run SCC on an SSA procedure.  Equal entry/call-def vectors return the
    memoized result of the earlier identical run. *)
let run ?(config = default_config) (p : Ssa.proc) : result =
  Trace.span
    ~args:(fun () -> [ ("proc", p.Ssa.name) ])
    "scc:solve"
    (fun () ->
      Trace.incr c_runs;
      let sc = Domain.DLS.get scratch in
      let n_entry = Array.length p.Ssa.entry_names in
      let n_cdv = p.Ssa.n_call_defs in
      sc.s_entry <- ensure sc.s_entry n_entry;
      sc.s_cdv <- ensure sc.s_cdv n_cdv;
      resolve_entry config p sc.s_entry;
      resolve_cdv config p sc.s_cdv;
      match memo_find p ~entry:sc.s_entry ~n_entry ~cdv:sc.s_cdv ~n_cdv with
      | Some e ->
          Trace.incr c_memo_hits;
          e.m_result
      | None ->
          let entry = Array.sub sc.s_entry 0 n_entry in
          let cdv = Array.sub sc.s_cdv 0 n_cdv in
          let r = run_kernel sc p ~entry ~cdv in
          memo_add p ~entry ~cdv r;
          r)

(* ------------------------------------------------------------------ *)
(* Result queries used by the interprocedural phases and the metrics   *)
(* ------------------------------------------------------------------ *)

(** Lattice value of argument [j] at call [c] (which must be executable). *)
let arg_value (r : result) (c : Ssa.call) j : Lattice.t =
  operand_value r c.Ssa.c_args.(j).Ssa.sa_operand

let arg_value_w (r : result) (c : Ssa.call) j : int =
  operand_word r.values c.Ssa.c_args.(j).Ssa.sa_operand

(* Shared lookup: SSA name id of global [g] at call [c], or -1 if the SSA
   construction did not record it (i.e. [g] is not in the callee's REF
   closure).  Two binary searches: var slot, then the call's compact slot
   table. *)
let global_id_at_call (r : result) (c : Ssa.call) (g : Ir.var) : int =
  let s = Ssa.slot_of r.proc g in
  if s < 0 then -1
  else begin
    let slots = c.Ssa.c_guse_slots in
    let lo = ref 0 and hi = ref (Array.length slots - 1) in
    let id = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let sm = slots.(mid) in
      if sm = s then begin
        id := c.Ssa.c_guse_ids.(mid);
        lo := !hi + 1
      end
      else if sm < s then lo := mid + 1
      else hi := mid - 1
    done;
    !id
  end

(** Lattice value of global [g] immediately before call [c], if recorded. *)
let global_at_call (r : result) (c : Ssa.call) (g : Ir.var) : Lattice.t option
    =
  let id = global_id_at_call r c g in
  if id < 0 then None else Some (P.to_t r.values.(id))

(** Count of {e uses} of source-level variables (not compiler temporaries)
    that are proved constant in executable code: the "intraprocedural
    substitutions" metric used by Grove–Torczon and Metzger–Stroud, which
    Table 5 compares against.  Each textual use site counts once; phi
    arguments are not uses (they have no textual counterpart). *)
let substitution_count (r : result) : int =
  let p = r.proc in
  let count = ref 0 in
  let count_op o =
    match o with
    | Ssa.Oconst _ -> ()
    | Ssa.Oname n ->
        if Ir.Var.is_source n.Ssa.base && P.is_const r.values.(n.Ssa.id) then
          incr count
  in
  Array.iteri
    (fun b (blk : Ssa.block) ->
      if r.block_executable.(b) then begin
        Array.iter
          (fun ins ->
            match ins with
            | Ssa.Assign (_, Ssa.Copy o) | Ssa.Assign (_, Ssa.Unop (_, o)) ->
                count_op o
            | Ssa.Assign (_, Ssa.Binop (_, x, y)) ->
                count_op x;
                count_op y
            | Ssa.Kill _ -> ()
            | Ssa.Call c ->
                Array.iter
                  (fun (a : Ssa.ssa_arg) -> count_op a.Ssa.sa_operand)
                  c.Ssa.c_args
            | Ssa.Print o -> count_op o)
          blk.Ssa.instrs;
        match blk.Ssa.term with
        | Ssa.Cond (c, _, _) -> count_op c
        | Ssa.Goto _ | Ssa.Ret -> ()
      end)
    p.blocks;
  !count

(** Packed value of variable [v] at procedure exit: the meet, over all {e
    executable} return blocks, of the reaching SSA version's value.  [top]
    if no return block is executable (the procedure cannot return — then a
    call to it never completes, so any claim about post-call values is
    vacuous).  Drives the return-constants extension (paper §3.2).  O(1)
    per return block via the [exit_ids] slot tables. *)
let exit_value_w (r : result) (v : Ir.var) : int =
  let p = r.proc in
  let s = Ssa.slot_of p v in
  let exits = p.Ssa.exit_ids in
  let acc = ref P.top in
  for i = 0 to Array.length exits - 1 do
    let b, tbl = exits.(i) in
    if r.block_executable.(b) then
      if s >= 0 && tbl.(s) >= 0 then acc := P.meet !acc r.values.(tbl.(s))
      else acc := P.bot (* not recorded: unknown *)
  done;
  !acc

let exit_value (r : result) (v : Ir.var) : Lattice.t =
  P.to_t (exit_value_w r v)
