(** The [VarSet] formulation of flow-sensitive interprocedural USE, kept
    as the executable specification of {!Fsicp_ipa.Use}.

    Every reachable procedure is visited in the PCG's reverse order,
    callees first.  Within a procedure a backward liveness over
    {!Ir.VarSet} runs on {!Dataflow_reference}'s worklist engine; a
    call site reads the callee's USE on a forward edge and its REF set on
    a back edge, bound through the argument list.  The entry block's live
    formals and globals are the procedure's USE. *)

open Fsicp_cfg
open Fsicp_prog
open Fsicp_ipa
open Summary
module Callgraph = Fsicp_callgraph.Callgraph

type t = { db : Prog.t; use : VrefSet.t Prog.Proc.Tbl.t }

let get t name =
  match Prog.proc_id t.db name with
  | Some id -> Prog.Proc.Tbl.get t.use id
  | None -> VrefSet.empty

let vref_of_var (v : Ir.var) : vref option =
  match v.Ir.vkind with
  | Ir.Formal i -> Some (Vformal i)
  | Ir.Global -> Some (Vglobal (Ir.Var.name v))
  | Ir.Local | Ir.Temp -> None

(** [compute procs modref pcg] computes USE for every reachable procedure.
    [procs] must contain the lowered body of each reachable procedure. *)
let compute (procs : Ir.proc Prog.Proc.Tbl.t) (modref : Modref.t)
    (pcg : Callgraph.t) : t =
  let use = Prog.Proc.Tbl.make (Callgraph.n_procs pcg) VrefSet.empty in
  let processed = Array.make (Callgraph.n_procs pcg) false in
  Array.iter
    (fun pid ->
      let p = Prog.Proc.Tbl.get procs pid in
      (* Per-call-site uses: bind the callee's USE (or REF on back edges)
         through the argument list into caller-side variables.  The lists
         are fixed for the duration of this procedure's dataflow solve
         (every forward-edge callee is already final, back edges read the
         static REF sets), so compute them once into a flat cache over the
         instruction ordinal instead of folding the [VrefSet] on every
         fixpoint iteration of [transfer]. *)
      let nblocks = Array.length p.Ir.cfg.Ir.blocks in
      let ibase = Array.make (nblocks + 1) 0 in
      for b = 0 to nblocks - 1 do
        ibase.(b + 1) <-
          ibase.(b) + Array.length p.Ir.cfg.Ir.blocks.(b).Ir.instrs
      done;
      let call_uses : Ir.var list array =
        Array.make (max 1 ibase.(nblocks)) []
      in
      Array.iteri
        (fun b (blk : Ir.block) ->
          Array.iteri
            (fun i ins ->
              match ins with
              | Ir.Call { cs_id; callee; args } ->
                  let callee_set =
                    let edge_is_back =
                      Callgraph.is_back_edge_at pcg ~caller:pid
                        ~cs_index:cs_id
                    in
                    let callee_id = Callgraph.proc_id_exn pcg callee in
                    if edge_is_back || not processed.((callee_id :> int))
                    then Modref.gref_of modref callee
                    else Prog.Proc.Tbl.get use callee_id
                  in
                  call_uses.(ibase.(b) + i) <-
                    VrefSet.fold
                      (fun v acc ->
                        match v with
                        | Vglobal g -> Ir.global g :: acc
                        | Vformal j -> (
                            if j < Array.length args then
                              match args.(j).Ir.a_byref with
                              | Some v -> v :: acc
                              | None -> acc
                            else acc))
                      callee_set []
              | Ir.Assign _ | Ir.Print _ -> ())
            blk.Ir.instrs)
        p.Ir.cfg.Ir.blocks;
      (* The generic engine takes a per-callee function; we need per-site
         (back-edge distinction), so inline the transfer here. *)
      let transfer b (live_out : Ir.VarSet.t) =
        let blk = p.Ir.cfg.Ir.blocks.(b) in
        let live = ref live_out in
        (match blk.Ir.term with
        | Ir.Cond (Ir.Var v, _, _) -> live := Ir.VarSet.add v !live
        | Ir.Cond (Ir.Const _, _, _) | Ir.Goto _ | Ir.Ret -> ());
        for i = Array.length blk.Ir.instrs - 1 downto 0 do
          let ins = blk.Ir.instrs.(i) in
          (match ins with
          | Ir.Assign (v, _) -> live := Ir.VarSet.remove v !live
          | Ir.Call _ | Ir.Print _ -> ());
          List.iter
            (fun u -> live := Ir.VarSet.add u !live)
            (Dataflow_reference.instr_uses ins);
          List.iter
            (fun u -> live := Ir.VarSet.add u !live)
            call_uses.(ibase.(b) + i)
        done;
        !live
      in
      let res =
        Dataflow_reference.VarSets.solve
          ~direction:Dataflow_reference.Backward ~init:Ir.VarSet.empty
          ~transfer p.Ir.cfg
      in
      let entry_live =
        res.Dataflow_reference.VarSets.block_in.(p.Ir.cfg.Ir.entry)
      in
      let vrefs =
        Ir.VarSet.fold
          (fun v acc ->
            match vref_of_var v with
            | Some r -> VrefSet.add r acc
            | None -> acc)
          entry_live VrefSet.empty
      in
      Prog.Proc.Tbl.set use pid vrefs;
      processed.((pid :> int)) <- true)
    (Callgraph.reverse_order pcg);
  { db = pcg.Callgraph.db; use }
