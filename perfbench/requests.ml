(* The seeded request stream of the serve-session workload.  The mix is
   70% flow-sensitive reads, 5% copy-constant / value-context reads, 20%
   shape-preserving edits and 5% shape-changing edits, so rebuilds are a
   fifth of the edits and cc/vc reads a fifteenth of the reads: no
   reported percentile sits on the boundary between two routes.  The mix
   is exact in every block of [block] requests (shuffled by the seed), so
   the stream's cost does not swing with how many rebuilds a seed draws.

   The generator keeps its own model of the current program, so every edit
   is made against the text the server holds and takes the intended
   route. *)

open Fsicp_lang
module Prng = Fsicp_workloads.Prng
module Json = Fsicp_serve.Json
module Callgraph = Fsicp_callgraph.Callgraph
module Summary = Fsicp_ipa.Summary

type kind = Query_fs | Query_slow | Edit_incremental | Edit_rebuild

let is_edit = function
  | Edit_incremental | Edit_rebuild -> true
  | Query_fs | Query_slow -> false

type request = { kind : kind; cmd : string; text : string }

let mix =
  [ (Query_fs, 14); (Query_slow, 1); (Edit_incremental, 4); (Edit_rebuild, 1) ]

let block = List.fold_left (fun a (_, n) -> a + n) 0 mix

type t = {
  rng : Prng.t;
  procs : string array;  (** reachable procedures *)
  callers : (string * int) array;  (** reachable callers and their call-site counts *)
  widen : (string * string) array;
      (** (procedure, global outside its own MOD and not shadowed by a
          formal): assigning the global changes the procedure's shape *)
  current : (string, Ast.proc) Hashtbl.t;
  widened : (string, unit) Hashtbl.t;  (** procedures holding the extra store *)
  mutable pending : kind list;  (** the rest of the current block *)
}

let create ~seed (prog : Ast.program) : t =
  let pcg = Callgraph.build prog in
  let procs = Array.map (Callgraph.proc_name pcg) pcg.Callgraph.nodes in
  let callers =
    Array.to_list pcg.Callgraph.nodes
    |> List.filter_map (fun pid ->
           let n = Callgraph.n_call_sites pcg pid in
           if n > 0 then Some (Callgraph.proc_name pcg pid, n) else None)
    |> Array.of_list
  in
  let current = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace current p.Ast.pname p) prog.Ast.procs;
  let widen =
    Array.to_list procs
    |> List.concat_map (fun name ->
           let p = Hashtbl.find current name in
           let s = Summary.summarize_proc prog p in
           List.filter_map
             (fun g ->
               if
                 Summary.VrefSet.mem (Summary.Vglobal g) s.Summary.ps_imod
                 || List.mem g p.Ast.formals
               then None
               else Some (name, g))
             prog.Ast.globals)
    |> Array.of_list
  in
  if Array.length callers = 0 || Array.length widen = 0 then
    invalid_arg "Requests.create: program has no call site or no free global";
  {
    rng = Prng.create seed;
    procs;
    callers;
    widen;
    current;
    widened = Hashtbl.create 16;
    pending = [];
  }

let pick rng a = a.(Prng.int rng (Array.length a))

(* Same statements and calls, fresh integer literals: the summary shape is
   unchanged, so the edit takes the incremental route. *)
let rec relit_expr rng = function
  | Ast.Const (Value.Int _) -> Ast.Const (Value.Int (1 + Prng.int rng 9))
  | Ast.Const _ as e -> e
  | Ast.Var _ as e -> e
  | Ast.Unary (o, e) -> Ast.Unary (o, relit_expr rng e)
  | Ast.Binary (o, l, r) ->
      let l = relit_expr rng l in
      Ast.Binary (o, l, relit_expr rng r)

let rec relit_block rng body = List.map (relit_stmt rng) body

and relit_stmt rng (s : Ast.stmt) =
  let sdesc =
    match s.Ast.sdesc with
    | Ast.Assign (x, e) -> Ast.Assign (x, relit_expr rng e)
    | Ast.If (c, t, f) ->
        let c = relit_expr rng c in
        let t = relit_block rng t in
        Ast.If (c, t, relit_block rng f)
    | Ast.While (c, b) ->
        let c = relit_expr rng c in
        Ast.While (c, relit_block rng b)
    | Ast.Call (p, args) -> Ast.Call (p, List.map (relit_expr rng) args)
    | Ast.Print e -> Ast.Print (relit_expr rng e)
    | Ast.Return -> Ast.Return
  in
  { s with Ast.sdesc }

let obj fields = Json.to_string (Json.Obj fields)

let edit t (p : Ast.proc) =
  Hashtbl.replace t.current p.Ast.pname p;
  obj
    [ ("cmd", Json.Str "edit-proc"); ("source", Json.Str (Pretty.proc_to_string p)) ]

(* Toggle the procedure's extra [g = g;] store at the head of its body:
   adding it widens MOD (and perhaps REF), removing it narrows them back;
   either way the shape changes and the server rebuilds. *)
let toggle_store t (name, g) =
  let p = Hashtbl.find t.current name in
  let body =
    if Hashtbl.mem t.widened name then begin
      Hashtbl.remove t.widened name;
      List.tl p.Ast.body
    end
    else begin
      Hashtbl.replace t.widened name ();
      { Ast.sdesc = Ast.Assign (g, Ast.Var g); spos = Ast.no_pos } :: p.Ast.body
    end
  in
  edit t { p with Ast.body }

let rec next_kind t =
  match t.pending with
  | k :: rest ->
      t.pending <- rest;
      k
  | [] ->
      t.pending <-
        Prng.shuffle t.rng (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) mix);
      next_kind t

let next t : request =
  match next_kind t with
  | Query_fs ->
    if Prng.bool t.rng 0.5 then
      {
        kind = Query_fs;
        cmd = "query-entry";
        text =
          obj
            [
              ("cmd", Json.Str "query-entry");
              ("proc", Json.Str (pick t.rng t.procs));
              ("method", Json.Str "fs");
            ];
      }
    else
      let caller, n = pick t.rng t.callers in
      {
        kind = Query_fs;
        cmd = "query-call-site";
        text =
          obj
            [
              ("cmd", Json.Str "query-call-site");
              ("caller", Json.Str caller);
              ("cs", Json.Int (Prng.int t.rng n));
            ];
      }
  | Query_slow ->
    {
      kind = Query_slow;
      cmd = "query-entry";
      text =
        obj
          [
            ("cmd", Json.Str "query-entry");
            ("proc", Json.Str (pick t.rng t.procs));
            ("method", Json.Str (if Prng.bool t.rng 0.5 then "cc" else "vc"));
          ];
    }
  | Edit_incremental ->
    let p = Hashtbl.find t.current (pick t.rng t.procs) in
    {
      kind = Edit_incremental;
      cmd = "edit-proc";
      text = edit t { p with Ast.body = relit_block t.rng p.Ast.body };
    }
  | Edit_rebuild ->
    { kind = Edit_rebuild; cmd = "edit-proc"; text = toggle_store t (pick t.rng t.widen) }
