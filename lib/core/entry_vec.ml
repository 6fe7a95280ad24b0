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
   call to it, and Modref precomputes that list per procedure.  Sorting
   the ids lets every lookup binary-search instead of hashing. *)
let shape (ctx : Context.t) proc =
  let nf =
    List.length (Summary.find ctx.Context.summaries proc).Summary.ps_formals
  in
  let gids =
    Modref.call_global_refs ctx.Context.modref ~callee:proc
    |> List.map (fun (g : Ir.var) -> g.Ir.vid)
    |> Array.of_list
  in
  Array.sort Prog.Var.compare gids;
  { nf; gids }

let size sh = sh.nf + Array.length sh.gids

let global_slot sh (g : int) =
  let gs = sh.gids in
  let lo = ref 0 and hi = ref (Array.length gs - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let gm = Prog.Var.to_int gs.(mid) in
    if gm = g then begin
      found := sh.nf + mid;
      lo := !hi + 1
    end
    else if gm < g then lo := mid + 1
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
      let s = global_slot sh (Prog.Var.to_int g) in
      (* missing: not in the REF closure — its entry value is never used *)
      if s >= 0 then v.(s) <- P.meet v.(s) (word w))
    globals

(* Block-data seeds, pre-encoded to packed words and keyed by raw int id:
   the entry-environment lookups never box.  [main] is a raw id, [-1] when
   the program has no such node. *)
type roots = { blockdata : (int, int) Hashtbl.t; main : int }

let roots (ctx : Context.t) =
  let blockdata = Context.blockdata_env ctx in
  let tbl = Hashtbl.create (List.length blockdata) in
  List.iter
    (fun (g, v) -> Hashtbl.replace tbl (Prog.Var.to_int g) (P.of_t v))
    blockdata;
  let main =
    match Callgraph.proc_id ctx.Context.pcg ctx.Context.prog.Ast.main with
    | Some pid -> (pid :> int)
    | None -> -1
  in
  { blockdata = tbl; main }

let is_main r (pid : Prog.Proc.id) = (pid :> int) = r.main

let seed r (g : int) =
  match Hashtbl.find_opt r.blockdata g with Some w -> w | None -> P.bot

let set_main_globals r sh v =
  Array.iteri (fun k g -> v.(sh.nf + k) <- seed r (Prog.Var.to_int g)) sh.gids

let main_vector r sh =
  let v = Array.make (size sh) P.bot in
  set_main_globals r sh v;
  v

let env r sh (pid : Prog.Proc.id) slot (v : Ir.var) : int =
  match v.Ir.vkind with
  | Ir.Formal j -> if j < sh.nf then slot j else P.bot
  | Ir.Global ->
      let g = Prog.Var.to_int v.Ir.vid in
      let s = global_slot sh g in
      if s >= 0 then slot s
        (* Not in the REF closure but still versioned (e.g. only in the MOD
           closure of some callee): unknown at entry unless this is [main]
           and block data initialises it. *)
      else if is_main r pid then seed r g
      else P.bot
  | Ir.Local | Ir.Temp -> P.bot

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
   so [pe_globals] comes out in canonical id order. *)
let box_entry sh v =
  {
    Solution.pe_formals = Array.init sh.nf (fun j -> P.to_t v.(j));
    pe_globals =
      List.init (Array.length sh.gids) (fun k ->
          (sh.gids.(k), P.to_t v.(sh.nf + k)));
  }

let record ~caller ~cs_index ~callee ~exec (cr_args, cr_globals) =
  {
    Solution.cr_caller = caller;
    cr_cs_index = cs_index;
    cr_callee = callee;
    cr_executable = exec;
    cr_args;
    cr_globals;
  }

let box ~exec w = if exec then P.to_t w else Lattice.Top

let box_site ~caller ~cs_index ~callee ~exec ~word (args, globals) =
  let box w = box ~exec (word w) in
  record ~caller ~cs_index ~callee ~exec
    (Array.map box args, List.map (fun (g, w) -> (g, box w)) globals)

