(** The original list/Hashtbl/Queue formulation of {!Fsicp_scc.Scc.run}
    over the {e boxed} lattice, kept as its executable specification: same
    fixpoint, no arena, no dedup, no memo, no packed words.  The config's
    packed oracle answers are decoded at the hooks and the boxed fixpoint
    is re-encoded only when building the final result.  The kernel is
    property-tested against it value-for-value and edge-for-edge (the SCC
    fixpoint is unique, so any drain order must agree). *)

open Fsicp_lang
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_scc
module P = Lattice.P

let bit_get bytes i =
  Char.code (Bytes.get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bytes i =
  let j = i lsr 3 in
  Bytes.set bytes j
    (Char.chr (Char.code (Bytes.get bytes j) lor (1 lsl (i land 7))))

let run ?(config = Scc.default_config) (p : Ssa.proc) : Scc.result =
  let values = Array.make (max 1 p.Ssa.n_names) Lattice.Top in
  let block_executable = Array.make (Array.length p.Ssa.blocks) false in
  let edge_exec = Bytes.make ((p.Ssa.n_edges + 8) / 8) '\000' in
  let flow_wl : int Queue.t = Queue.create () in
  let ssa_wl : Ssa.use_site Queue.t = Queue.create () in
  let boxed_operand (o : Ssa.operand) : Lattice.t =
    match o with
    | Ssa.Oconst v -> Lattice.Const v
    | Ssa.Oname n -> values.(n.Ssa.id)
  in
  let lower (n : Ssa.name) (v : Lattice.t) =
    let old = values.(n.Ssa.id) in
    let merged = Lattice.meet old v in
    if not (Lattice.equal old merged) then begin
      assert (Lattice.le merged old);
      values.(n.Ssa.id) <- merged;
      List.iter (fun site -> Queue.add site ssa_wl) (Ssa.uses_of p n.Ssa.id)
    end
  in
  let visit_phi b pi =
    let ph = p.Ssa.blocks.(b).Ssa.phis.(pi) in
    let v = ref Lattice.Top in
    Array.iteri
      (fun k (_, (n : Ssa.name)) ->
        if bit_get edge_exec ph.Ssa.p_edges.(k) then
          v := Lattice.meet !v values.(n.Ssa.id))
      ph.Ssa.p_args;
    lower ph.Ssa.p_name !v
  in
  let visit_instr b i =
    match p.Ssa.blocks.(b).Ssa.instrs.(i) with
    | Ssa.Assign (n, rhs) ->
        let v =
          match rhs with
          | Ssa.Copy o -> boxed_operand o
          | Ssa.Unop (op, o) -> Lattice.eval_unop op (boxed_operand o)
          | Ssa.Binop (op, a, c) ->
              Lattice.eval_binop op (boxed_operand a) (boxed_operand c)
        in
        lower n v
    | Ssa.Kill kills -> Array.iter (fun (_, n) -> lower n Lattice.Bot) kills
    | Ssa.Call c ->
        Array.iter
          (fun (base, n) ->
            lower n
              (P.to_t (config.call_def_value ~callee:c.Ssa.c_callee base)))
          c.Ssa.c_defs
    | Ssa.Print _ -> ()
  in
  let mark_edge e = if not (bit_get edge_exec e) then Queue.add e flow_wl in
  let visit_term b =
    match p.Ssa.blocks.(b).Ssa.term with
    | Ssa.Goto _ -> mark_edge p.Ssa.edge_base.(b)
    | Ssa.Ret -> ()
    | Ssa.Cond (c, t, f) -> (
        let te = p.Ssa.edge_base.(b) in
        let fe = if t = f then te else te + 1 in
        match boxed_operand c with
        | Lattice.Top -> ()
        | Lattice.Const v -> if Value.truthy v then mark_edge te else mark_edge fe
        | Lattice.Bot ->
            mark_edge te;
            if fe <> te then mark_edge fe)
  in
  let visit_block b =
    Array.iteri (fun pi _ -> visit_phi b pi) p.Ssa.blocks.(b).Ssa.phis;
    Array.iteri (fun i _ -> visit_instr b i) p.Ssa.blocks.(b).Ssa.instrs;
    visit_term b
  in
  Array.iter
    (fun ((v : Ir.var), (n : Ssa.name)) ->
      let init =
        match v.Ir.vkind with
        | Ir.Temp -> Lattice.Bot
        | Ir.Local | Ir.Formal _ | Ir.Global -> P.to_t (config.entry_env v)
      in
      values.(n.Ssa.id) <- init)
    p.Ssa.entry_names;
  block_executable.(p.Ssa.entry) <- true;
  visit_block p.Ssa.entry;
  while not (Queue.is_empty flow_wl && Queue.is_empty ssa_wl) do
    while not (Queue.is_empty flow_wl) do
      let e = Queue.take flow_wl in
      if not (bit_get edge_exec e) then begin
        bit_set edge_exec e;
        let d = p.Ssa.edge_dst.(e) in
        let first_visit = not block_executable.(d) in
        block_executable.(d) <- true;
        if first_visit then visit_block d
        else Array.iteri (fun pi _ -> visit_phi d pi) p.Ssa.blocks.(d).Ssa.phis
      end
    done;
    while not (Queue.is_empty ssa_wl) do
      match Queue.take ssa_wl with
      | Ssa.Uphi (b, pi) -> if block_executable.(b) then visit_phi b pi
      | Ssa.Uinstr (b, i) -> if block_executable.(b) then visit_instr b i
      | Ssa.Uterm b -> if block_executable.(b) then visit_term b
    done
  done;
  (* Encode the boxed fixpoint at the boundary: the canonical packing makes
     this bijective on the reachable lattice elements, so comparing packed
     results word-for-word is exactly comparing boxed values. *)
  {
    Scc.proc = Some p;
    values = Array.map P.of_t values;
    block_executable;
    edge_exec;
  }
