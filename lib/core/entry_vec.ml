(** Entry vectors: slot [j < nf] is formal [j], slot [nf + k] is REF-closure
    global [gids.(k)] (see the interface). *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_ipa
open Fsicp_scc
module P = Lattice.P

type shape = { nf : int; gids : Prog.Var.id array }

(* GREF of a procedure is exactly what [call_global_refs] reports for a
   call to it, and Modref precomputes that list per procedure, descending
   by name.  Ascending, the ids let every lookup binary-search instead of
   hashing. *)
let shape (ctx : Context.t) proc =
  let nf =
    List.length (Summary.find ctx.Context.summaries proc).Summary.ps_formals
  in
  let gids =
    Modref.call_global_refs ctx.Context.modref ~callee:proc
    |> List.rev_map (fun (g : Ir.var) -> g.Ir.vid)
    |> Array.of_list
  in
  { nf; gids }

let size sh = sh.nf + Array.length sh.gids

let global_slot sh (g : Prog.Var.id) =
  let gs = sh.gids in
  let lo = ref 0 and hi = ref (Array.length gs - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Prog.Var.compare gs.(mid) g in
    if c = 0 then begin
      found := sh.nf + mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let top sh = Array.make (size sh) P.top

let finalize v =
  for s = 0 to Array.length v - 1 do
    if v.(s) = P.top then v.(s) <- P.bot
  done

let meet_site sh v ~word args globals =
  Array.iteri
    (fun j w -> if j < sh.nf then v.(j) <- P.meet v.(j) (word w))
    args;
  List.iter
    (fun (g, w) ->
      let s = global_slot sh g in
      (* missing: not in the REF closure — its entry value is never used *)
      if s >= 0 then v.(s) <- P.meet v.(s) (word w))
    globals

(* Block-data seeds, pre-encoded to packed words and keyed by raw int id:
   the entry-environment lookups never box.  [main] is a raw id, [-1] when
   the program has no such node. *)
type roots = { pcg : Callgraph.t; blockdata : (int, int) Hashtbl.t; main : int }

let roots (ctx : Context.t) =
  let blockdata = Context.blockdata_env ctx in
  let tbl = Hashtbl.create (List.length blockdata) in
  List.iter
    (fun (g, v) -> Hashtbl.replace tbl (Prog.Var.to_int g) (P.of_t v))
    blockdata;
  let pcg = ctx.Context.pcg in
  let main =
    match Callgraph.proc_id pcg ctx.Context.prog.Ast.main with
    | Some pid -> (pid :> int)
    | None -> -1
  in
  { pcg; blockdata = tbl; main }

let is_main r (pid : Prog.Proc.id) = (pid :> int) = r.main

let seed r (g : int) =
  match Hashtbl.find_opt r.blockdata g with Some w -> w | None -> P.bot

let set_main_globals r sh v =
  Array.iteri (fun k g -> v.(sh.nf + k) <- seed r (Prog.Var.to_int g)) sh.gids

(* Any call into [main] is a back edge, so its block-data globals replace
   whatever those edges contributed: main's whole global story. *)
let entry r sh pid contribute =
  let v = top sh in
  Array.iter (fun e -> contribute e v) (Callgraph.in_edges r.pcg pid);
  if is_main r pid then set_main_globals r sh v;
  finalize v;
  v

let env r sh (pid : Prog.Proc.id) slot (v : Ir.var) : int =
  match v.Ir.vkind with
  | Ir.Formal j -> if j < sh.nf then slot j else P.bot
  | Ir.Global ->
      let s = global_slot sh v.Ir.vid in
      if s >= 0 then slot s
        (* Not in the REF closure but still versioned (e.g. only in the MOD
           closure of some callee): unknown at entry unless this is [main]
           and block data initialises it. *)
      else if is_main r pid then seed r (Prog.Var.to_int v.Ir.vid)
      else P.bot
  | Ir.Local | Ir.Temp -> P.bot

(* A formal the entry does not list reads ⊥; a closure global it does not
   list reads what [env] gives a versioned global outside the closure: its
   block-data seed in [main], ⊥ elsewhere. *)
let of_entry r sh pid (e : Solution.proc_entry) =
  let v = Array.make (size sh) P.bot in
  Array.iteri
    (fun j x -> if j < sh.nf then v.(j) <- P.of_t x)
    e.Solution.pe_formals;
  if is_main r pid then set_main_globals r sh v;
  List.iter
    (fun (g, x) ->
      let s = global_slot sh g in
      if s >= 0 then v.(s) <- P.of_t x)
    e.Solution.pe_globals;
  v

(* The kernel asks for a call's effect by callee name, so the calls to one
   callee that define the same variable meet their values (conservative
   and rare).  The calls are indexed by callee once, so each query folds
   only that callee's sites. *)
let by_callee call_sites f =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, _, (c : Ssa.call)) -> Hashtbl.add tbl c.Ssa.c_callee c)
    call_sites;
  fun ~callee v ->
    let w =
      List.fold_left
        (fun acc c -> P.meet acc (f c v))
        P.top (Hashtbl.find_all tbl callee)
    in
    if w = P.top then P.bot else w

let run (ctx : Context.t) r sh pid ?call_def_value slot =
  let ssa = Context.ssa_at ctx pid in
  let call_sites = Ssa.call_sites ssa in
  let call_def_value =
    match call_def_value with
    | None -> Scc.default_config.Scc.call_def_value
    | Some f -> by_callee call_sites f
  in
  let config = { Scc.entry_env = env r sh pid slot; call_def_value } in
  (Scc.run ~config ssa, call_sites)

let read_site ~word (res : Scc.result) (c : Ssa.call) =
  ( Array.mapi (fun j _ -> word (Scc.arg_value_w res c j)) c.Ssa.c_args,
    Array.fold_right
      (fun ((g : Ir.var), (n : Ssa.name)) acc ->
        (g.Ir.vid, word res.Scc.values.(n.Ssa.id)) :: acc)
      c.Ssa.c_global_uses [] )

let split sh v =
  ( Array.sub v 0 sh.nf,
    List.init (Array.length sh.gids) (fun k -> (sh.gids.(k), v.(sh.nf + k))) )

(* Decode to boxed values only at the Solution boundary; [gids] is sorted,
   so [pe_globals] comes out in name order. *)
let box_entry sh v =
  {
    Solution.pe_formals = Array.init sh.nf (fun j -> P.to_t v.(j));
    pe_globals =
      List.init (Array.length sh.gids) (fun k ->
          (sh.gids.(k), P.to_t v.(sh.nf + k)));
  }

let box_site ~caller ~cs_index ~callee ~exec ~word (args, globals) =
  let box w = if exec then P.to_t (word w) else Lattice.Top in
  {
    Solution.cr_caller = caller;
    cr_cs_index = cs_index;
    cr_callee = callee;
    cr_executable = exec;
    cr_args = Array.map box args;
    cr_globals = List.map (fun (g, w) -> (g, box w)) globals;
  }

let publish (pcg : Callgraph.t) ~method_name ~scc_runs shapes vecs site =
  let db = pcg.Callgraph.db in
  let entries =
    Prog.tbl_init db (fun pid ->
        let i = (pid :> int) in
        box_entry shapes.(i) vecs.(i))
  in
  let call_index =
    Prog.tbl_init db (fun pid ->
        Array.map
          (fun (e : Callgraph.edge) ->
            Option.map
              (fun (exec, word, words) ->
                box_site ~caller:pid ~cs_index:e.Callgraph.cs_index
                  ~callee:e.Callgraph.callee ~exec ~word words)
              (site e))
          (Callgraph.out_edges pcg pid))
  in
  Solution.of_rows ~method_name ~db ~entries ~call_index ~scc_runs
