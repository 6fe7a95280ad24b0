(** Semi-pruned static single assignment form (Cytron et al.; Briggs et
    al.), over the {!Fsicp_cfg.Ir} quad IR.

    The paper's intraprocedural analysis — Wegman–Zadeck Sparse Conditional
    Constant propagation — is "built upon an implementation of SSA data-flow
    analysis"; this module is that implementation.

    Besides ordinary assignments, {e call} instructions are definition
    points: a call may write through its by-reference actuals and may modify
    globals.  Which variables a particular call defines, and which globals'
    values at the call the interprocedural phase wants recorded, are
    supplied by a {!call_effects} oracle (in the full pipeline this oracle
    is the interprocedural MOD/REF information; tests can use the
    conservative {!conservative_effects}).

    Every variable has an implicit {e entry definition} (version 0) in the
    entry block, whose lattice value the constant propagator takes from its
    entry environment — this is precisely the hook through which
    interprocedural constants enter the intraprocedural analysis. *)

open Fsicp_lang
open Fsicp_cfg

(** An SSA name: a base IR variable plus version.  [id] is a dense index
    unique within the procedure, used for constant-time lattice lookups. *)
type name = { base : Ir.var; ver : int; id : int }

let pp_name ppf n = Fmt.pf ppf "%a.%d" Ir.Var.pp n.base n.ver

type operand = Oconst of Value.t | Oname of name

let pp_operand ppf = function
  | Oconst v -> Value.pp ppf v
  | Oname n -> pp_name ppf n

type rhs =
  | Copy of operand
  | Unop of Ops.unop * operand
  | Binop of Ops.binop * operand * operand

let pp_rhs ppf = function
  | Copy o -> pp_operand ppf o
  | Unop (op, o) -> Fmt.pf ppf "%a%a" Ops.pp_unop op pp_operand o
  | Binop (op, a, b) ->
      Fmt.pf ppf "%a %a %a" pp_operand a Ops.pp_binop op pp_operand b

type ssa_arg = { sa_operand : operand; sa_byref : Ir.var option }

type call = {
  c_cs_id : int;  (** call-site id (textual order, from lowering) *)
  c_callee : string;
  c_args : ssa_arg array;
  c_global_uses : (Ir.var * name) array;
      (** reaching SSA version of each global whose value at this call the
          interprocedural analysis needs (callee's REF set) *)
  c_defs : (Ir.var * name) array;
      (** fresh versions for the variables this call may modify *)
  c_guse_slots : int array;
      (** ascending var slots of the [c_global_uses] entries *)
  c_guse_ids : int array;
      (** name ids parallel to [c_guse_slots]: the compact lookup table
          behind {!val:Fsicp_scc.Scc.global_at_call} *)
  mutable c_def_base : int;
      (** index of this call's first def in the procedure's flat call-def
          numbering (block order); the SCC kernel resolves the oracle value
          of def [k] into slot [c_def_base + k] of one dense vector *)
}

type instr =
  | Assign of name * rhs
  | Kill of (Ir.var * name) array
      (** alias kill: fresh, unknown-valued versions of variables whose
          location may have been written by the {e preceding} assignment
          through a reference-parameter alias.  Keeps SSA sound when a
          store through one name may change the value of another. *)
  | Call of call
  | Print of operand

type phi = {
  p_name : name;
  p_args : (int * name) array;  (** (predecessor block, incoming name) *)
  p_edges : int array;
      (** dense edge id of each incoming CFG edge, parallel to [p_args] *)
}

type terminator = Goto of int | Cond of operand * int * int | Ret

type block = {
  phis : phi array;
  instrs : instr array;
  term : terminator;
}

(** A use site; pushing these onto the SCC's SSA worklist re-evaluates the
    corresponding phi/instruction/terminator. *)
type use_site =
  | Uphi of int * int  (** (block, phi index) *)
  | Uinstr of int * int  (** (block, instruction index) *)
  | Uterm of int  (** block terminator (condition) *)

(* Dense site ids: every phi, instruction and terminator of the procedure
   gets one int id, numbered per block in order (phis, then instructions,
   then the terminator).  [site_code] packs the decoded form into one
   tagged int: bits [1:0] = kind (0 phi, 1 instr, 2 term), bits [33:2] =
   block, bits [62:34] = index within the block.  The CSR def-use chains
   and the SCC worklists traffic in site ids only. *)
let site_tag_phi = 0
let site_tag_instr = 1
let site_tag_term = 2

let[@inline] pack_site ~tag ~block ~index =
  (index lsl 34) lor (block lsl 2) lor tag

(** Extension point for analysis-private per-procedure caches (the SCC
    engine hangs its entry-vector memo here); lives and dies with the
    [proc] value. *)
type memo = ..

type memo += No_memo

type proc = {
  name : string;
  blocks : block array;
  entry : int;
  preds : int list array;
  dom : Dominance.t;
  entry_names : (Ir.var * name) array;  (** version-0 names, all variables *)
  n_names : int;
  use_offsets : int array;
      (** CSR row starts into [use_sites], length [n_names + 1]: the use
          sites of name [id] are [use_sites.(use_offsets.(id)) ..
          use_sites.(use_offsets.(id + 1) - 1)] *)
  use_sites : int array;  (** CSR payload: dense site ids *)
  n_sites : int;
  site_code : int array;  (** site id -> packed (tag, block, index) *)
  n_edges : int;
  edge_base : int array;
      (** block -> first out-edge id, length [nblocks + 1]; out edges are
          numbered consecutively in successor order ([Cond] with equal arms
          collapses to one edge, mirroring [Ir.successors]) *)
  edge_dst : int array;  (** edge id -> destination block *)
  vars : Ir.var array;
      (** the variable universe, in slot order: ascending by
          [Ir.Var.compare], which {!slot_of} binary-searches *)
  exit_ids : (int * int array) array;
      (** per [Ret] block: var slot -> the id of the name reaching the
          return, for every formal and global (the values a call observes
          after the procedure finishes, which drive the return-constants
          extension), or -1 *)
  calls : (int * int * call) array;
      (** every call as [(block, instr index, call)], block order *)
  n_call_defs : int;  (** total [c_defs] across [calls] *)
  mutable memo : memo;
}

(** Oracle describing interprocedural side effects of calls and of stores
    through possibly-aliased names. *)
type call_effects = {
  defs_of_call : callee:string -> byref_args:Ir.var option array -> Ir.var list;
      (** variables (caller-side) the call may define *)
  globals_used_by : callee:string -> Ir.var list;
      (** globals whose reaching value should be recorded at the call *)
  assign_aliases : Ir.var -> Ir.var list;
      (** variables whose location a store to the given variable may also
          write (reference-parameter may-aliases); each direct assignment
          is followed by a {!Kill} of these *)
}

(** Sound default when MOD/REF and alias information are unavailable: a
    call may define every by-reference actual and every global of the
    program; the value of every global is relevant; and — since any two
    by-reference names could alias — a store to a formal clobbers every
    other formal and every global (and vice versa).  The full pipeline
    replaces this with the {!Fsicp_ipa} oracles, which is where all the
    precision comes from. *)
let conservative_effects ?(formals : Ir.var list = []) (prog : Ast.program) :
    call_effects =
  let globals = List.map Ir.global prog.Ast.globals in
  {
    defs_of_call =
      (fun ~callee:_ ~byref_args ->
        let byrefs =
          Array.to_list byref_args |> List.filter_map (fun x -> x)
        in
        List.sort_uniq Ir.Var.compare (byrefs @ globals));
    globals_used_by = (fun ~callee:_ -> globals);
    assign_aliases =
      (fun v ->
        match v.Ir.vkind with
        | Ir.Formal _ | Ir.Global ->
            List.filter
              (fun w -> not (Ir.Var.equal v w))
              (formals @ globals)
        | Ir.Local | Ir.Temp -> []);
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* [of_proc] runs four phases over a lowered procedure:
   - {!universe}: the variable slots, each instruction's oracle answers,
     and which slots are non-local;
   - {!place_phis}: the iterated dominance frontier of each non-local
     slot's definition blocks;
   - {!rename}: a dominator-tree walk that versions every definition and
     fills in the φ arguments;
   - {!def_use}: dense site ids, the CSR def-use chains and the flat call
     list.

   The form is semi-pruned (Briggs, Cooper, Harvey and Simpson, "Practical
   Improvements to the Construction and Destruction of SSA Form", 1998):
   only non-local slots get φs.  A formal or a global is non-local, since
   returns and calls read it; a local or a temporary is non-local when
   some block reads it before that block defines it.  Every read of any
   other slot follows a definition in its own block, so a φ for it would
   define a name that nothing uses. *)

let byref_array (args : Ir.arg array) : Ir.var option array =
  Array.map (fun (a : Ir.arg) -> a.Ir.a_byref) args

(* Domain-local construction scratch, indexed by [Ir.Var.slot_key].  A key
   is in the current universe iff [stamp.(k) = epoch], and then has the
   dense slot [slot.(k)]; it is read before its own block defines it
   somewhere iff [exposed.(k) = epoch]; and the block being scanned has
   defined it iff [defined.(k) = tick].  [epoch] grows once per procedure
   and [tick] once per block, so the arrays are never cleared and
   consecutive [of_proc] calls on one domain share them.  [Domain.DLS]
   keeps the scratch race-free when [Context.build_ssa] constructs
   procedures on several domains. *)
module Scratch = struct
  type t = {
    mutable epoch : int;
    mutable tick : int;
    mutable stamp : int array;
    mutable slot : int array;
    mutable exposed : int array;
    mutable defined : int array;
  }

  let create () =
    let z () = Array.make 4096 0 in
    { epoch = 0; tick = 0; stamp = z (); slot = z (); exposed = z (); defined = z () }

  let dls = Domain.DLS.new_key create

  let get () =
    let t = Domain.DLS.get dls in
    t.epoch <- t.epoch + 1;
    t

  let grow a n =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let ensure t k =
    let cap = Array.length t.stamp in
    if k >= cap then begin
      let n = max (k + 1) (2 * cap) in
      t.stamp <- grow t.stamp n;
      t.slot <- grow t.slot n;
      t.exposed <- grow t.exposed n;
      t.defined <- grow t.defined n
    end
end

(* -- Phase 1: the universe ------------------------------------------ *)

type universe = {
  cfg : Ir.cfg;
  vars : Ir.var array;
      (* slot -> variable, ascending by [Ir.Var.compare], so the slots and
         every SSA name numbered from them do not depend on the process's
         interning order *)
  slot : int array;  (* [Ir.Var.slot_key] -> slot, for the keys of [vars] *)
  nonlocal : bool array;  (* per slot *)
  ibase : int array;  (* block -> ordinal of its first instruction *)
  call_ds : Ir.var array array;  (* call ordinal -> variables it defines *)
  call_gs : Ir.var array array;  (* call ordinal -> globals it records *)
  kill_at : Ir.var array array;  (* assignment ordinal -> its alias kills *)
}

let[@inline] vidx u v = u.slot.(Ir.Var.slot_key v)
let[@inline] iord u b i = u.ibase.(b) + i

(* One pass over the IR, blocks and instructions in order, collects the
   occurring variables, the oracle's answers per instruction and the reads
   that precede a definition in their block. *)
let universe (effects : call_effects) (p : Ir.proc) : universe =
  let cfg = p.Ir.cfg in
  let nblocks = Array.length cfg.Ir.blocks in
  let sc = Scratch.get () in
  let epoch = sc.Scratch.epoch in
  let acc = ref [] in
  let note v =
    let k = Ir.Var.slot_key v in
    Scratch.ensure sc k;
    if sc.Scratch.stamp.(k) <> epoch then begin
      sc.Scratch.stamp.(k) <- epoch;
      acc := v :: !acc
    end
  in
  let read_op = function
    | Ir.Const _ -> ()
    | Ir.Var v ->
        note v;
        let k = Ir.Var.slot_key v in
        if sc.Scratch.defined.(k) <> sc.Scratch.tick then
          sc.Scratch.exposed.(k) <- epoch
  in
  let write v =
    note v;
    sc.Scratch.defined.(Ir.Var.slot_key v) <- sc.Scratch.tick
  in
  Array.iter note p.Ir.formals;
  let ibase = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    ibase.(b + 1) <- ibase.(b) + Array.length cfg.Ir.blocks.(b).Ir.instrs
  done;
  let n_instrs = ibase.(nblocks) in
  let call_ds = Array.make n_instrs [||] in
  let call_gs = Array.make n_instrs [||] in
  let kill_at = Array.make n_instrs [||] in
  (* The alias-kill list of a variable is build-invariant; memoising it per
     assigned variable keeps the oracle's list surgery (closure over the
     alias pairs, sort, self-filter) off the per-assignment path. *)
  let kill_memo : (int, Ir.var array) Hashtbl.t = Hashtbl.create 16 in
  let kills_of v =
    let key = Ir.Var.slot_key v in
    match Hashtbl.find_opt kill_memo key with
    | Some ks -> ks
    | None ->
        let ks =
          List.sort_uniq Ir.Var.compare (effects.assign_aliases v)
          |> List.filter (fun w -> not (Ir.Var.equal v w))
          |> Array.of_list
        in
        Hashtbl.add kill_memo key ks;
        ks
  in
  Array.iteri
    (fun b (blk : Ir.block) ->
      sc.Scratch.tick <- sc.Scratch.tick + 1;
      Array.iteri
        (fun i ins ->
          let o = ibase.(b) + i in
          match ins with
          | Ir.Call { callee; args; _ } ->
              Array.iter (fun (a : Ir.arg) -> read_op a.Ir.a_operand) args;
              let gs = Array.of_list (effects.globals_used_by ~callee) in
              let ds =
                Array.of_list
                  (effects.defs_of_call ~callee ~byref_args:(byref_array args))
              in
              Array.iter note gs;
              Array.iter write ds;
              call_gs.(o) <- gs;
              call_ds.(o) <- ds
          | Ir.Assign (v, rhs) -> (
              (match rhs with
              | Ir.Copy x | Ir.Unop (_, x) -> read_op x
              | Ir.Binop (_, x, y) ->
                  read_op x;
                  read_op y);
              write v;
              (* Only formals and globals can carry reference-parameter
                 aliases (both oracles answer [] for locals and temps), so
                 the oracle and the memo are skipped on the common case. *)
              match v.Ir.vkind with
              | Ir.Local | Ir.Temp -> ()
              | Ir.Formal _ | Ir.Global ->
                  let ks = kills_of v in
                  Array.iter note ks;
                  kill_at.(o) <- ks)
          | Ir.Print x -> read_op x)
        blk.Ir.instrs;
      match blk.Ir.term with
      | Ir.Cond (c, _, _) -> read_op c
      | Ir.Goto _ | Ir.Ret -> ())
    cfg.Ir.blocks;
  let vars = Array.of_list !acc in
  Array.sort Ir.Var.compare vars;
  (* [ensure] is done growing, so the slot array can be kept. *)
  let slot = sc.Scratch.slot in
  Array.iteri (fun i v -> slot.(Ir.Var.slot_key v) <- i) vars;
  let nonlocal =
    Array.map
      (fun (v : Ir.var) ->
        match v.Ir.vkind with
        | Ir.Formal _ | Ir.Global -> true
        | Ir.Local | Ir.Temp -> sc.Scratch.exposed.(Ir.Var.slot_key v) = epoch)
      vars
  in
  { cfg; vars; slot; nonlocal; ibase; call_ds; call_gs; kill_at }

(* -- Phase 2: φ placement ------------------------------------------- *)

(* The slots that get a φ in each block, ascending: for each non-local
   slot, the iterated dominance frontier of its definition blocks — the
   entry block (version 0) and every block with an assignment, alias kill
   or call def of it.  The definition blocks form a CSR over slots, the
   worklist is an int stack, and the (block, slot) placements accumulate
   in one int buffer that a counting sort splits per block: the phase
   allocates no cons cell. *)
let place_phis (u : universe) (df : int list array) : int array array =
  let cfg = u.cfg in
  let nblocks = Array.length cfg.Ir.blocks in
  let nvars = Array.length u.vars in
  let iter_defs f =
    Array.iteri
      (fun b (blk : Ir.block) ->
        for i = 0 to Array.length blk.Ir.instrs - 1 do
          let ws =
            match blk.Ir.instrs.(i) with
            | Ir.Assign (v, _) ->
                f v b;
                u.kill_at.(iord u b i)
            | Ir.Call _ -> u.call_ds.(iord u b i)
            | Ir.Print _ -> [||]
          in
          for j = 0 to Array.length ws - 1 do
            f ws.(j) b
          done
        done)
      cfg.Ir.blocks
  in
  let dcnt = Array.make (nvars + 1) 0 in
  iter_defs (fun v _ ->
      let s = vidx u v in
      if u.nonlocal.(s) then dcnt.(s + 1) <- dcnt.(s + 1) + 1);
  for s = 0 to nvars - 1 do
    dcnt.(s + 1) <- dcnt.(s + 1) + dcnt.(s)
  done;
  let dpay = Array.make dcnt.(nvars) 0 in
  let dfill = Array.sub dcnt 0 nvars in
  iter_defs (fun v b ->
      let s = vidx u v in
      if u.nonlocal.(s) then begin
        dpay.(dfill.(s)) <- b;
        dfill.(s) <- dfill.(s) + 1
      end);
  (* [pairs] records each placement as b * nvars + s.  Placements arrive in
     ascending slot order, so the counting sort keeps each block's slots
     ascending.  The worker closures are hoisted out of the slot loop (the
     iteration state lives in refs), so the loop allocates nothing. *)
  let has_phi = Array.make nblocks 0 in
  let queued = Array.make nblocks 0 in
  let work = Array.make nblocks 0 in
  let phi_cnt = Array.make (nblocks + 1) 0 in
  let pairs = ref (Array.make 64 0) in
  let n_pairs = ref 0 in
  let stamp = ref 0 in
  let cur = ref 0 in
  let sp = ref 0 in
  let enqueue b =
    if queued.(b) <> !stamp then begin
      queued.(b) <- !stamp;
      work.(!sp) <- b;
      incr sp
    end
  in
  let visit y =
    if has_phi.(y) <> !stamp then begin
      has_phi.(y) <- !stamp;
      phi_cnt.(y + 1) <- phi_cnt.(y + 1) + 1;
      if !n_pairs = Array.length !pairs then
        pairs := Scratch.grow !pairs (2 * !n_pairs);
      !pairs.(!n_pairs) <- (y * nvars) + !cur;
      incr n_pairs;
      enqueue y
    end
  in
  for s = 0 to nvars - 1 do
    if u.nonlocal.(s) then begin
      stamp := s + 1;
      cur := s;
      sp := 0;
      enqueue cfg.Ir.entry;
      for k = dcnt.(s) to dcnt.(s + 1) - 1 do
        enqueue dpay.(k)
      done;
      while !sp > 0 do
        decr sp;
        List.iter visit df.(work.(!sp))
      done
    end
  done;
  for b = 0 to nblocks - 1 do
    phi_cnt.(b + 1) <- phi_cnt.(b + 1) + phi_cnt.(b)
  done;
  let phi_vars =
    Array.init nblocks (fun b -> Array.make (phi_cnt.(b + 1) - phi_cnt.(b)) 0)
  in
  let pfill = Array.make nblocks 0 in
  for k = 0 to !n_pairs - 1 do
    let code = !pairs.(k) in
    let b = code / nvars and s = code mod nvars in
    phi_vars.(b).(pfill.(b)) <- s;
    pfill.(b) <- pfill.(b) + 1
  done;
  phi_vars

(* -- Phase 3: renaming ---------------------------------------------- *)

(* Dense edge ids: out edges per block, numbered consecutively in
   successor order; a [Cond] with equal arms contributes one edge (as in
   [Ir.successors]), so every (pred, succ) pair has exactly one id.
   [pred_edge.(s)] holds the ids of [s]'s incoming edges in
   predecessor-list order (the [p_edges] vector all φs of [s] share), and
   [pred_pos] maps an edge to its position there. *)
type edges = {
  edge_base : int array;
  edge_dst : int array;
  pred_edge : int array array;
  pred_pos : int array;
}

let edges (cfg : Ir.cfg) (preds : int list array) : edges =
  let nblocks = Array.length cfg.Ir.blocks in
  let edge_base = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    let out =
      match cfg.Ir.blocks.(b).Ir.term with
      | Ir.Goto _ -> 1
      | Ir.Cond (_, t, f) -> if t = f then 1 else 2
      | Ir.Ret -> 0
    in
    edge_base.(b + 1) <- edge_base.(b) + out
  done;
  let n_edges = edge_base.(nblocks) in
  let edge_dst = Array.make n_edges 0 in
  for b = 0 to nblocks - 1 do
    match cfg.Ir.blocks.(b).Ir.term with
    | Ir.Goto t -> edge_dst.(edge_base.(b)) <- t
    | Ir.Cond (_, t, f) ->
        edge_dst.(edge_base.(b)) <- t;
        if t <> f then edge_dst.(edge_base.(b) + 1) <- f
    | Ir.Ret -> ()
  done;
  let edge_id ~pred ~succ =
    match cfg.Ir.blocks.(pred).Ir.term with
    | Ir.Goto _ -> edge_base.(pred)
    | Ir.Cond (_, t, f) ->
        if t = f || t = succ then edge_base.(pred) else edge_base.(pred) + 1
    | Ir.Ret -> assert false
  in
  let pred_pos = Array.make n_edges 0 in
  let pred_edge =
    Array.init nblocks (fun s ->
        let arr = Array.make (List.length preds.(s)) 0 in
        List.iteri
          (fun k b ->
            let e = edge_id ~pred:b ~succ:s in
            arr.(k) <- e;
            pred_pos.(e) <- k)
          preds.(s);
        arr)
  in
  { edge_base; edge_dst; pred_edge; pred_pos }

(* The renaming walk's state.  [cur] holds the reaching name per slot; an
   undo log of (slot, previous name) pairs restores it on leaving a
   dominator subtree.  [args.(b).(k)] holds the incoming names of [b]'s
   [k]-th φ by predecessor position, each written when that predecessor
   is renamed, which may come before [b] itself. *)
type renamer = {
  u : universe;
  e : edges;
  phi_vars : int array array;
  children : int list array;
  cur : name array;
  next_ver : int array;
  mutable next_id : int;
  mutable undo_slot : int array;
  mutable undo_prev : name array;
  mutable undo_len : int;
  args : (int * name) array array array;
  out_phis : name array array;
  out_instrs : instr array array;
  out_terms : terminator array;
  mutable exits : (int * int array) list;  (* newest first *)
}

let fresh rn s =
  let n = { base = rn.u.vars.(s); ver = rn.next_ver.(s); id = rn.next_id } in
  rn.next_ver.(s) <- rn.next_ver.(s) + 1;
  rn.next_id <- rn.next_id + 1;
  n

(* A fresh name for slot [s] that reaches the rest of the subtree. *)
let define rn s =
  let n = fresh rn s in
  if rn.undo_len = Array.length rn.undo_slot then begin
    let cap = max 64 (2 * rn.undo_len) in
    let ns = Array.make cap 0 and np = Array.make cap n in
    Array.blit rn.undo_slot 0 ns 0 rn.undo_len;
    Array.blit rn.undo_prev 0 np 0 rn.undo_len;
    rn.undo_slot <- ns;
    rn.undo_prev <- np
  end;
  rn.undo_slot.(rn.undo_len) <- s;
  rn.undo_prev.(rn.undo_len) <- rn.cur.(s);
  rn.undo_len <- rn.undo_len + 1;
  rn.cur.(s) <- n;
  n

let rename_operand rn (o : Ir.operand) : operand =
  match o with Ir.Const v -> Oconst v | Ir.Var v -> Oname rn.cur.(vidx rn.u v)

let rename_call rn o cs_id callee (args : Ir.arg array) : call =
  let c_args =
    Array.map
      (fun (a : Ir.arg) ->
        { sa_operand = rename_operand rn a.Ir.a_operand;
          sa_byref = a.Ir.a_byref })
      args
  in
  let c_global_uses =
    Array.map (fun g -> (g, rn.cur.(vidx rn.u g))) rn.u.call_gs.(o)
  in
  let ng = Array.length c_global_uses in
  let c_guse_slots = Array.make ng 0 in
  let c_guse_ids = Array.make ng 0 in
  for j = 0 to ng - 1 do
    let g, n = c_global_uses.(j) in
    c_guse_slots.(j) <- vidx rn.u g;
    c_guse_ids.(j) <- n.id
  done;
  (* Parallel insertion sort by slot (ng is small). *)
  for j = 1 to ng - 1 do
    let s = c_guse_slots.(j) and id = c_guse_ids.(j) in
    let m = ref (j - 1) in
    while !m >= 0 && c_guse_slots.(!m) > s do
      c_guse_slots.(!m + 1) <- c_guse_slots.(!m);
      c_guse_ids.(!m + 1) <- c_guse_ids.(!m);
      decr m
    done;
    c_guse_slots.(!m + 1) <- s;
    c_guse_ids.(!m + 1) <- id
  done;
  let c_defs = Array.map (fun v -> (v, define rn (vidx rn.u v))) rn.u.call_ds.(o) in
  { c_cs_id = cs_id; c_callee = callee; c_args; c_global_uses; c_defs;
    c_guse_slots; c_guse_ids; c_def_base = -1 }

let dummy_instr = Print (Oconst (Value.Int 0))

(* Block [b]'s instructions, into an exactly-sized array: an assignment
   with alias kills yields two SSA instructions. *)
let rename_instrs rn b : instr array =
  let instrs = rn.u.cfg.Ir.blocks.(b).Ir.instrs in
  let n = ref (Array.length instrs) in
  for i = 0 to Array.length instrs - 1 do
    if Array.length rn.u.kill_at.(iord rn.u b i) > 0 then incr n
  done;
  let out = Array.make !n dummy_instr in
  let k = ref 0 in
  let emit ins =
    out.(!k) <- ins;
    incr k
  in
  Array.iteri
    (fun i ins ->
      let o = iord rn.u b i in
      match ins with
      | Ir.Assign (v, rhs) ->
          let rhs =
            match rhs with
            | Ir.Copy x -> Copy (rename_operand rn x)
            | Ir.Unop (op, x) -> Unop (op, rename_operand rn x)
            | Ir.Binop (op, x, y) ->
                Binop (op, rename_operand rn x, rename_operand rn y)
          in
          emit (Assign (define rn (vidx rn.u v), rhs));
          let ks = rn.u.kill_at.(o) in
          if Array.length ks > 0 then
            emit (Kill (Array.map (fun w -> (w, define rn (vidx rn.u w))) ks))
      | Ir.Print x -> emit (Print (rename_operand rn x))
      | Ir.Call { cs_id; callee; args } ->
          emit (Call (rename_call rn o cs_id callee args)))
    instrs;
  assert (!k = !n);
  out

let rec rename_block rn b =
  let depth0 = rn.undo_len in
  rn.out_phis.(b) <- Array.map (fun s -> define rn s) rn.phi_vars.(b);
  rn.out_instrs.(b) <- rename_instrs rn b;
  (match rn.u.cfg.Ir.blocks.(b).Ir.term with
  | Ir.Goto t -> rn.out_terms.(b) <- Goto t
  | Ir.Cond (c, t, f) -> rn.out_terms.(b) <- Cond (rename_operand rn c, t, f)
  | Ir.Ret ->
      (* The reaching version of every formal and global: the values a
         call observes after the procedure returns. *)
      let tbl =
        Array.mapi
          (fun s (v : Ir.var) ->
            match v.Ir.vkind with
            | Ir.Formal _ | Ir.Global -> rn.cur.(s).id
            | Ir.Local | Ir.Temp -> -1)
          rn.u.vars
      in
      rn.exits <- (b, tbl) :: rn.exits);
  (* Successors' φ arguments, by predecessor position. *)
  let e = rn.e in
  for edge = e.edge_base.(b) to e.edge_base.(b + 1) - 1 do
    let s = e.edge_dst.(edge) in
    let pos = e.pred_pos.(edge) in
    let pv = rn.phi_vars.(s) in
    for pi = 0 to Array.length pv - 1 do
      rn.args.(s).(pi).(pos) <- (b, rn.cur.(pv.(pi)))
    done
  done;
  List.iter (rename_block rn) rn.children.(b);
  while rn.undo_len > depth0 do
    rn.undo_len <- rn.undo_len - 1;
    rn.cur.(rn.undo_slot.(rn.undo_len)) <- rn.undo_prev.(rn.undo_len)
  done

(* Version 0 of slot [s] is the entry definition, with id [s]; the walk
   then visits the dominator tree from the entry.  Lowering leaves no
   unreachable block, so the walk renames every predecessor and each φ
   argument slot is written.  Returns the blocks, the number of names, the
   entry names and the [exit_ids] table. *)
let rename (u : universe) (e : edges) (dom : Dominance.t)
    (phi_vars : int array array) =
  let nblocks = Array.length u.cfg.Ir.blocks in
  let nvars = Array.length u.vars in
  let entry_names =
    Array.mapi (fun s v -> (v, { base = v; ver = 0; id = s })) u.vars
  in
  let rn =
    {
      u;
      e;
      phi_vars;
      children = dom.Dominance.children;
      cur = Array.map snd entry_names;
      next_ver = Array.make nvars 1;
      next_id = nvars;
      undo_slot = [||];
      undo_prev = [||];
      undo_len = 0;
      args =
        Array.init nblocks (fun s ->
            let np = Array.length e.pred_edge.(s) in
            Array.map
              (fun _ -> Array.make np (-1, snd entry_names.(0)))
              phi_vars.(s));
      out_phis = Array.make nblocks [||];
      out_instrs = Array.make nblocks [||];
      out_terms = Array.make nblocks Ret;
      exits = [];
    }
  in
  rename_block rn u.cfg.Ir.entry;
  let blocks =
    Array.init nblocks (fun b ->
        {
          phis =
            Array.mapi
              (fun pi p_name ->
                { p_name; p_args = rn.args.(b).(pi); p_edges = e.pred_edge.(b) })
              rn.out_phis.(b);
          instrs = rn.out_instrs.(b);
          term = rn.out_terms.(b);
        })
  in
  (blocks, rn.next_id, entry_names, Array.of_list (List.rev rn.exits))

(* -- Phase 4: def–use ----------------------------------------------- *)

type def_use = {
  n_sites : int;
  site_code : int array;
  use_offsets : int array;
  use_sites : int array;
  calls : (int * int * call) array;
  n_call_defs : int;
}

let def_use (blocks : block array) (n_names : int) : def_use =
  let nblocks = Array.length blocks in
  let site_base = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    site_base.(b + 1) <-
      site_base.(b)
      + Array.length blocks.(b).phis
      + Array.length blocks.(b).instrs
      + 1 (* terminator *)
  done;
  let n_sites = site_base.(nblocks) in
  let site_code = Array.make n_sites 0 in
  for b = 0 to nblocks - 1 do
    let base = site_base.(b) in
    let nphis = Array.length blocks.(b).phis in
    let ninstrs = Array.length blocks.(b).instrs in
    for pi = 0 to nphis - 1 do
      site_code.(base + pi) <- pack_site ~tag:site_tag_phi ~block:b ~index:pi
    done;
    for i = 0 to ninstrs - 1 do
      site_code.(base + nphis + i) <-
        pack_site ~tag:site_tag_instr ~block:b ~index:i
    done;
    site_code.(base + nphis + ninstrs) <-
      pack_site ~tag:site_tag_term ~block:b ~index:0
  done;
  (* Two passes over one closure-free traversal: count uses per name, then
     fill.  The second pass advances the offsets in place; shifting them
     back afterwards avoids a scratch cursor array. *)
  let use_offsets = Array.make (n_names + 1) 0 in
  let iter_uses f =
    for b = 0 to nblocks - 1 do
      let blk = blocks.(b) in
      let phi_site = site_base.(b) in
      for pi = 0 to Array.length blk.phis - 1 do
        let pa = blk.phis.(pi).p_args in
        for j = 0 to Array.length pa - 1 do
          let _, n = pa.(j) in
          f n (phi_site + pi)
        done
      done;
      let instr_site = phi_site + Array.length blk.phis in
      for i = 0 to Array.length blk.instrs - 1 do
        let site = instr_site + i in
        (* Operand matches are inlined (not a local [use_operand] helper)
           so the loop allocates no closures. *)
        match blk.instrs.(i) with
        | Assign (_, rhs) -> (
            match rhs with
            | Copy (Oname n) | Unop (_, Oname n) -> f n site
            | Copy (Oconst _) | Unop (_, Oconst _) -> ()
            | Binop (_, x, y) ->
                (match x with Oname n -> f n site | Oconst _ -> ());
                (match y with Oname n -> f n site | Oconst _ -> ()))
        | Kill _ -> ()
        | Call c ->
            for j = 0 to Array.length c.c_args - 1 do
              match c.c_args.(j).sa_operand with
              | Oname n -> f n site
              | Oconst _ -> ()
            done;
            for j = 0 to Array.length c.c_global_uses - 1 do
              let _, n = c.c_global_uses.(j) in
              f n site
            done
        | Print (Oname n) -> f n site
        | Print (Oconst _) -> ()
      done;
      match blk.term with
      | Cond (Oname n, _, _) ->
          f n (instr_site + Array.length blk.instrs)
      | Cond (Oconst _, _, _) | Goto _ | Ret -> ()
    done
  in
  iter_uses (fun n _ -> use_offsets.(n.id + 1) <- use_offsets.(n.id + 1) + 1);
  for i = 0 to n_names - 1 do
    use_offsets.(i + 1) <- use_offsets.(i + 1) + use_offsets.(i)
  done;
  let use_sites = Array.make use_offsets.(n_names) 0 in
  iter_uses (fun n site ->
      use_sites.(use_offsets.(n.id)) <- site;
      use_offsets.(n.id) <- use_offsets.(n.id) + 1);
  for i = n_names downto 1 do
    use_offsets.(i) <- use_offsets.(i - 1)
  done;
  use_offsets.(0) <- 0;
  (* The calls, collected backwards so the list comes out in block order. *)
  let calls = ref [] in
  for b = nblocks - 1 downto 0 do
    let instrs = blocks.(b).instrs in
    for i = Array.length instrs - 1 downto 0 do
      match instrs.(i) with
      | Call c -> calls := (b, i, c) :: !calls
      | Assign _ | Kill _ | Print _ -> ()
    done
  done;
  let calls = Array.of_list !calls in
  let n_call_defs = ref 0 in
  Array.iter
    (fun (_, _, c) ->
      c.c_def_base <- !n_call_defs;
      n_call_defs := !n_call_defs + Array.length c.c_defs)
    calls;
  { n_sites; site_code; use_offsets; use_sites; calls;
    n_call_defs = !n_call_defs }

(** Build SSA form for a lowered procedure. *)
let of_proc ?(effects : call_effects option) (prog : Ast.program)
    (p : Ir.proc) : proc =
  let effects =
    match effects with
    | Some e -> e
    | None ->
        conservative_effects ~formals:(Array.to_list p.Ir.formals) prog
  in
  let cfg = p.Ir.cfg in
  let preds = Ir.predecessors cfg in
  let dom = Dominance.compute cfg in
  let u = universe effects p in
  let phi_vars = place_phis u (Dominance.frontiers cfg dom) in
  let e = edges cfg preds in
  let blocks, n_names, entry_names, exit_ids = rename u e dom phi_vars in
  let d = def_use blocks n_names in
  {
    name = p.Ir.name;
    blocks;
    entry = cfg.Ir.entry;
    preds;
    dom;
    entry_names;
    n_names;
    use_offsets = d.use_offsets;
    use_sites = d.use_sites;
    n_sites = d.n_sites;
    site_code = d.site_code;
    n_edges = Array.length e.edge_dst;
    edge_base = e.edge_base;
    edge_dst = e.edge_dst;
    vars = u.vars;
    exit_ids;
    calls = d.calls;
    n_call_defs = d.n_call_defs;
    memo = No_memo;
  }

(* ------------------------------------------------------------------ *)
(* Queries and validation                                              *)
(* ------------------------------------------------------------------ *)

(** The variable's dense slot in this procedure's universe, or -1.
    Binary search over [vars] — alloc- and hash-free. *)
let slot_of (p : proc) (v : Ir.var) : int =
  let vars = p.vars in
  let lo = ref 0 and hi = ref (Array.length vars - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Ir.Var.compare vars.(mid) v in
    if c = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(** Decode a dense site id back to its structured form. *)
let decode_site (p : proc) (s : int) : use_site =
  let code = p.site_code.(s) in
  let b = (code lsr 2) land 0xffffffff in
  let idx = code lsr 34 in
  match code land 3 with
  | 0 -> Uphi (b, idx)
  | 1 -> Uinstr (b, idx)
  | _ -> Uterm b

(** The use sites of name [id], decoded from the CSR row (traversal
    order).  Convenience for tests and reference implementations; the SCC
    kernel walks [use_offsets]/[use_sites] directly. *)
let uses_of (p : proc) (id : int) : use_site list =
  let lo = p.use_offsets.(id) and hi = p.use_offsets.(id + 1) in
  List.init (hi - lo) (fun k -> decode_site p p.use_sites.(lo + k))

(** All call instructions, as [(block, instr index, call)] in block order. *)
let call_sites (p : proc) : (int * int * call) list = Array.to_list p.calls

(** Structural invariants, raised upon by the test-suite:
    - every name has exactly one definition site;
    - each φ has exactly one argument per predecessor;
    - each definition dominates its uses: an instruction or terminator
      use is defined earlier in its own block or in a dominating block,
      and a φ argument is defined in a block that dominates its incoming
      predecessor. *)
let validate (p : proc) : (unit, string) result =
  let exception Invalid of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt in
  (* Definition block and position: -2 for the entry names, -1 for φs,
     the instruction index otherwise. *)
  let def_block = Array.make p.n_names (-1) in
  let def_pos = Array.make p.n_names 0 in
  let define n b pos =
    if def_block.(n.id) >= 0 then fail "name %a defined twice" pp_name n;
    def_block.(n.id) <- b;
    def_pos.(n.id) <- pos
  in
  (* A use at position [pos] of block [b]. *)
  let use n b pos =
    let d = def_block.(n.id) in
    if d < 0 then fail "%a used in B%d but never defined" pp_name n b;
    if not (if d = b then def_pos.(n.id) < pos else Dominance.dominates p.dom d b)
    then fail "%a, defined in B%d, does not dominate its use in B%d" pp_name n d b
  in
  let use_op b pos = function Oconst _ -> () | Oname n -> use n b pos in
  try
    Array.iter (fun (_, n) -> define n p.entry (-2)) p.entry_names;
    Array.iteri
      (fun b (blk : block) ->
        Array.iter (fun (ph : phi) -> define ph.p_name b (-1)) blk.phis;
        Array.iteri
          (fun i -> function
            | Assign (n, _) -> define n b i
            | Kill kills -> Array.iter (fun (_, n) -> define n b i) kills
            | Call c -> Array.iter (fun (_, n) -> define n b i) c.c_defs
            | Print _ -> ())
          blk.instrs)
      p.blocks;
    Array.iteri
      (fun b (blk : block) ->
        let npreds = List.length p.preds.(b) in
        Array.iter
          (fun (ph : phi) ->
            if Array.length ph.p_args <> npreds then
              fail "phi %a at B%d has %d args for %d preds" pp_name ph.p_name b
                (Array.length ph.p_args) npreds;
            Array.iter (fun (pred, n) -> use n pred max_int) ph.p_args)
          blk.phis;
        Array.iteri
          (fun i -> function
            | Assign (_, (Copy o | Unop (_, o))) | Print o -> use_op b i o
            | Assign (_, Binop (_, x, y)) ->
                use_op b i x;
                use_op b i y
            | Kill _ -> ()
            | Call c ->
                Array.iter (fun a -> use_op b i a.sa_operand) c.c_args;
                Array.iter (fun (_, n) -> use n b i) c.c_global_uses)
          blk.instrs;
        match blk.term with
        | Cond (c, _, _) -> use_op b (Array.length blk.instrs) c
        | Goto _ | Ret -> ())
      p.blocks;
    Ok ()
  with Invalid msg -> Error msg

let pp_proc ppf (p : proc) =
  Fmt.pf ppf "ssa proc %s:@\n" p.name;
  Array.iteri
    (fun b (blk : block) ->
      Fmt.pf ppf "B%d:@\n" b;
      Array.iter
        (fun (ph : phi) ->
          Fmt.pf ppf "  %a = phi(%a)@\n" pp_name ph.p_name
            Fmt.(
              array ~sep:(any ", ") (fun ppf (pred, n) ->
                  pf ppf "B%d:%a" pred pp_name n))
            ph.p_args)
        blk.phis;
      Array.iter
        (fun ins ->
          match ins with
          | Assign (n, rhs) -> Fmt.pf ppf "  %a = %a@\n" pp_name n pp_rhs rhs
          | Kill kills ->
              Fmt.pf ppf "  kill(%a)@\n"
                Fmt.(array ~sep:(any ", ") (fun ppf (_, n) -> pp_name ppf n))
                kills
          | Call c ->
              Fmt.pf ppf "  call[%d] %s(%a) defs(%a)@\n" c.c_cs_id c.c_callee
                Fmt.(
                  array ~sep:(any ", ") (fun ppf a -> pp_operand ppf a.sa_operand))
                c.c_args
                Fmt.(
                  array ~sep:(any ", ") (fun ppf (_, n) -> pp_name ppf n))
                c.c_defs
          | Print o -> Fmt.pf ppf "  print %a@\n" pp_operand o)
        blk.instrs;
      match blk.term with
      | Goto t -> Fmt.pf ppf "  goto B%d@\n" t
      | Cond (c, t, f) ->
          Fmt.pf ppf "  if %a then B%d else B%d@\n" pp_operand c t f
      | Ret -> Fmt.pf ppf "  ret@\n")
    p.blocks
