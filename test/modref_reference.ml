(** The round-robin [VrefSet] formulation of interprocedural MOD/REF,
    kept as the executable specification of {!Fsicp_ipa.Modref}.

    Every procedure is swept in the PCG's reverse order, callees before
    callers, and the sweeps repeat until no set changes.  A step unions
    the procedure's immediate set, its current set and each callee's set
    bound through the call's argument list, then closes the result over
    the procedure's alias pairs one step deep.  Since the current set
    feeds the next step, the fixpoint is closed under that step, i.e.
    under the reflexive-transitive closure of the formal–formal pairs.
    The renderings below reproduce the list orders of the query API. *)

open Fsicp_ipa
open Summary
module Callgraph = Fsicp_callgraph.Callgraph
module Ir = Fsicp_cfg.Ir

type t = {
  gmod : (string, VrefSet.t) Hashtbl.t;
  gref : (string, VrefSet.t) Hashtbl.t;
}

let get tbl name =
  Option.value (Hashtbl.find_opt tbl name) ~default:VrefSet.empty

let alias_close (aliases : Alias.t) proc (s : VrefSet.t) : VrefSet.t =
  VrefSet.fold
    (fun v acc ->
      match v with
      | Vformal i ->
          let acc =
            List.fold_left
              (fun acc j -> VrefSet.add (Vformal j) acc)
              acc
              (Alias.formals_aliasing_formal aliases proc i)
          in
          List.fold_left
            (fun acc g -> VrefSet.add (Vglobal g) acc)
            acc
            (Alias.globals_aliasing_formal aliases proc i)
      | Vglobal _ -> acc)
    s s

let bind_through_call (c : call_summary) (callee_set : VrefSet.t) :
    VrefSet.t =
  VrefSet.fold
    (fun v acc ->
      match v with
      | Vglobal g -> VrefSet.add (Vglobal g) acc
      | Vformal j ->
          if j < Array.length c.cs_args then
            match c.cs_args.(j) with
            | Aformal i -> VrefSet.add (Vformal i) acc
            | Aglobal g -> VrefSet.add (Vglobal g) acc
            | Alit _ | Alocal _ | Aexpr -> acc
          else acc)
    callee_set VrefSet.empty

let compute (summaries : Summary.t) (aliases : Alias.t) (pcg : Callgraph.t) :
    t =
  let gmod = Hashtbl.create 16 and gref = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun pid ->
        let name = Callgraph.proc_name pcg pid in
        let s = Summary.find summaries name in
        let step tbl immediate =
          let acc = ref (VrefSet.union immediate (get tbl name)) in
          List.iter
            (fun c ->
              let callee_set =
                alias_close aliases c.cs_callee (get tbl c.cs_callee)
              in
              acc := VrefSet.union !acc (bind_through_call c callee_set))
            s.ps_calls;
          let closed = alias_close aliases name !acc in
          if not (VrefSet.equal closed (get tbl name)) then begin
            Hashtbl.replace tbl name closed;
            changed := true
          end
        in
        step gmod s.ps_imod;
        step gref s.ps_iref)
      (Callgraph.reverse_order pcg)
  done;
  { gmod; gref }

let gmod_of t name = get t.gmod name
let gref_of t name = get t.gref name

let call_defs t ~callee ~(byref_args : Ir.var option array) : Ir.var list =
  let ms = get t.gmod callee in
  let globals =
    VrefSet.fold
      (fun v acc ->
        match v with Vglobal g -> Ir.global g :: acc | Vformal _ -> acc)
      ms []
  in
  let byrefs =
    VrefSet.fold
      (fun v acc ->
        match v with
        | Vformal j when j < Array.length byref_args -> (
            match byref_args.(j) with Some x -> x :: acc | None -> acc)
        | Vformal _ | Vglobal _ -> acc)
      ms []
  in
  List.sort_uniq Ir.Var.compare (byrefs @ globals)

let call_global_refs t ~callee : Ir.var list =
  VrefSet.fold
    (fun v acc ->
      match v with Vglobal g -> Ir.global g :: acc | Vformal _ -> acc)
    (get t.gref callee) []

let globals_modified_anywhere t ~main : string list =
  VrefSet.fold
    (fun v acc -> match v with Vglobal g -> g :: acc | Vformal _ -> acc)
    (get t.gmod main) []
