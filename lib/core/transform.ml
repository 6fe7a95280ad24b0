(** Program transformation from ICP results (paper Figure 2, step 6, and the
    substitution metric of Table 5).

    The paper materialises interprocedural constants during the backward
    walk: "This propagation is equivalent to adding an assignment statement
    for each constant variable at the beginning of the procedure where it
    is constant.  Assignment statements are created only for those
    variables that are referenced in that procedure." —
    {!insert_entry_constants} does exactly that at the AST level, producing
    a semantically equivalent program (checked by property tests).

    {!substitutions} computes the Grove–Torczon/Metzger–Stroud metric the
    paper reports in Table 5: run the final intraprocedural constant
    propagation of each procedure with the method's interprocedural
    constants as the entry environment, and count the uses of source
    variables proved constant in live code. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_callgraph
open Fsicp_scc

(** [insert_entry_constants ctx solution] returns a copy of the program in
    which every procedure starts with [x = c;] assignments for each formal
    and global the solution proves constant at its entry {e and} that the
    procedure references.  Procedures not reachable from main are kept
    unchanged. *)
let insert_entry_constants (ctx : Context.t) (solution : Solution.t) :
    Ast.program =
  let prog = ctx.Context.prog in
  let procs =
    List.map
      (fun (p : Ast.proc) ->
        match Solution.entry_opt solution p.Ast.pname with
        | None -> p
        | Some entry ->
            let read = Ast.read_vars p in
            let formal_assigns =
              List.mapi
                (fun i f ->
                  match
                    if i < Array.length entry.Solution.pe_formals then
                      entry.Solution.pe_formals.(i)
                    else Lattice.Bot
                  with
                  | Lattice.Const v when List.mem f read ->
                      [ Ast.assign f (Ast.Const v) ]
                  | Lattice.Top | Lattice.Const _ | Lattice.Bot -> [])
                p.Ast.formals
              |> List.concat
            in
            let global_assigns =
              List.filter_map
                (fun (g, v) ->
                  let name = Prog.Var.name g in
                  match v with
                  | Lattice.Const value
                    when List.mem name read
                         && not (List.mem name p.Ast.formals) ->
                      Some (Ast.assign name (Ast.Const value))
                  | Lattice.Top | Lattice.Const _ | Lattice.Bot -> None)
                entry.Solution.pe_globals
            in
            { p with Ast.body = formal_assigns @ global_assigns @ p.Ast.body })
      prog.Ast.procs
  in
  { prog with Ast.procs }

(** Per-procedure and total substitution counts for a method's solution:
    one final {!Entry_vec.run} per reachable procedure, seeded with
    {!Entry_vec.of_entry} of the method's entry.  (For the flow-sensitive
    method this re-derives exactly the interleaved runs' results;
    re-running keeps the metric uniform across methods.) *)
let substitutions (ctx : Context.t) (solution : Solution.t) :
    (string * int) list * int =
  let roots = Entry_vec.roots ctx in
  let pcg = ctx.Context.pcg in
  let per_proc =
    Array.to_list (Callgraph.forward_order pcg)
    |> List.map (fun pid ->
           let proc = Callgraph.proc_name pcg pid in
           let sh = Entry_vec.shape ctx proc in
           let entry =
             Entry_vec.of_entry roots sh pid (Solution.entry_at solution pid)
           in
           let res, _ = Entry_vec.run ctx roots sh pid (Array.get entry) in
           (proc, Scc.substitution_count res))
  in
  (per_proc, List.fold_left (fun acc (_, n) -> acc + n) 0 per_proc)
