(* The corpus-compile input: Scale's four families (chain, fanout, common,
   recursion) at fixed quarter shares, each generated from the workload
   seed, stitched under one main.  This is Scale's Mixed shape, except
   that Mixed draws the four shares from the seed, which alone moved the
   cost of a compile by about 15% between seeds. *)

open Fsicp_lang
module Scale = Fsicp_workloads.Scale

(* Prefix the procedure's name, its callees and the globals it names
   (a name is a global unless a formal shadows it). *)
let rename_proc ~prefix ~globals (p : Ast.proc) =
  let var x =
    if Hashtbl.mem globals x && not (List.mem x p.Ast.formals) then prefix ^ x
    else x
  in
  let rec expr = function
    | Ast.Const _ as e -> e
    | Ast.Var x -> Ast.Var (var x)
    | Ast.Unary (o, e) -> Ast.Unary (o, expr e)
    | Ast.Binary (o, l, r) ->
        let l = expr l in
        Ast.Binary (o, l, expr r)
  in
  let rec stmt (s : Ast.stmt) =
    let sdesc =
      match s.Ast.sdesc with
      | Ast.Assign (x, e) -> Ast.Assign (var x, expr e)
      | Ast.If (c, t, f) ->
          let c = expr c in
          let t = block t in
          Ast.If (c, t, block f)
      | Ast.While (c, b) ->
          let c = expr c in
          Ast.While (c, block b)
      | Ast.Call (q, args) -> Ast.Call (prefix ^ q, List.map expr args)
      | Ast.Print e -> Ast.Print (expr e)
      | Ast.Return -> Ast.Return
    in
    { s with Ast.sdesc }
  and block b = List.map stmt b in
  { p with Ast.pname = prefix ^ p.Ast.pname; body = block p.Ast.body }

let families = [ Scale.Chain; Scale.Fanout; Scale.Common; Scale.Recursion ]

(* [procs] procedures in all, the new main included. *)
let generate ~seed ~procs : Ast.program =
  let share = (procs - 1) / 4 in
  let parts =
    List.mapi
      (fun i family ->
        let n = if i = 3 then procs - 1 - (3 * share) else share in
        let prog =
          Scale.generate { Scale.sp_family = family; sp_procs = n; sp_seed = seed }
        in
        let prefix = String.lowercase_ascii (Scale.family_to_string family) ^ "_" in
        let globals = Hashtbl.create 64 in
        List.iter (fun g -> Hashtbl.replace globals g ()) prog.Ast.globals;
        ( List.map (fun g -> prefix ^ g) prog.Ast.globals,
          List.map (fun (g, v) -> (prefix ^ g, v)) prog.Ast.blockdata,
          List.map (rename_proc ~prefix ~globals) prog.Ast.procs,
          Ast.call (prefix ^ prog.Ast.main) [] ))
      families
  in
  let main =
    {
      Ast.pname = "main";
      formals = [];
      body = List.map (fun (_, _, _, call) -> call) parts;
      ppos = Ast.no_pos;
    }
  in
  {
    Ast.globals = List.concat_map (fun (g, _, _, _) -> g) parts;
    blockdata = List.concat_map (fun (_, b, _, _) -> b) parts;
    procs = main :: List.concat_map (fun (_, _, p, _) -> p) parts;
    main = "main";
  }
