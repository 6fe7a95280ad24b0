(** Procedure inlining — the other transformation the paper's backward walk
    offers ("optional procedure inlining and cloning may be performed",
    Figure 2 step 6; Wegman–Zadeck suggested procedure integration as the
    way to make their intraprocedural algorithm interprocedural, which the
    paper cites as the expensive alternative its ICP avoids).

    Inlining a MiniFort call must respect by-reference parameter passing:

    - an actual that is a bare variable is substituted {e textually} for
      the formal (they denote the same location, so reads and writes through
      the formal become reads and writes of the actual);
    - any other actual is bound to a fresh local initialised with the
      expression (the hidden temporary of the call semantics);
    - the callee's locals are renamed apart from everything in the caller;
    - early [return]s in the callee body cannot be represented after
      inlining (MiniFort has no jumps), so procedures containing [return]
      are not inlined.

    Recursive and mutually recursive procedures are never inlined.  The
    [max_body] threshold keeps growth bounded, like a production inliner. *)

open Fsicp_lang

let rec body_size (body : Ast.stmt list) : int =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      acc
      +
      match s.Ast.sdesc with
      | Ast.If (_, t, e) -> 1 + body_size t + body_size e
      | Ast.While (_, b) -> 1 + body_size b
      | Ast.Assign _ | Ast.Call _ | Ast.Return | Ast.Print _ -> 1)
    0 body

let has_return (body : Ast.stmt list) : bool =
  let found = ref false in
  Ast.iter_stmts
    (fun s -> match s.Ast.sdesc with Ast.Return -> found := true | _ -> ())
    body;
  !found

(** Is [callee] eligible for inlining into any caller? *)
let inlinable (ctx : Context.t) ~(max_body : int) (callee : Ast.proc) : bool =
  (not (String.equal callee.Ast.pname ctx.Context.prog.Ast.main))
  && (not (has_return callee.Ast.body))
  && body_size callee.Ast.body <= max_body
  &&
  (* never inline into or across a cycle: the callee must not (transitively)
     reach itself *)
  let pcg = ctx.Context.pcg in
  match Fsicp_callgraph.Callgraph.proc_id pcg callee.Ast.pname with
  | None -> true (* unreachable: touches no PCG cycle *)
  | Some pid ->
      let no_back =
        Array.for_all (fun (e : Fsicp_callgraph.Callgraph.edge) ->
            not e.Fsicp_callgraph.Callgraph.back)
      in
      no_back (Fsicp_callgraph.Callgraph.out_edges pcg pid)
      && no_back (Fsicp_callgraph.Callgraph.in_edges pcg pid)

(* Substitute variables in an expression. *)
let rec subst_expr (env : (string * Ast.expr) list) (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Const _ -> e
  | Ast.Var x -> ( match List.assoc_opt x env with Some e' -> e' | None -> e)
  | Ast.Unary (op, a) -> Ast.Unary (op, subst_expr env a)
  | Ast.Binary (op, a, b) -> Ast.Binary (op, subst_expr env a, subst_expr env b)

let rec subst_block env (body : Ast.stmt list) : Ast.stmt list =
  List.map (subst_stmt env) body

and subst_stmt env (s : Ast.stmt) : Ast.stmt =
  let d =
    match s.Ast.sdesc with
    | Ast.Assign (x, e) ->
        let x' =
          match List.assoc_opt x env with
          | Some (Ast.Var y) -> y
          | Some _ ->
              (* assignment to a formal bound to a temp: the temp name *)
              invalid_arg "Inline.subst_stmt: non-variable assign target"
          | None -> x
        in
        Ast.Assign (x', subst_expr env e)
    | Ast.If (c, t, e) -> Ast.If (subst_expr env c, subst_block env t, subst_block env e)
    | Ast.While (c, b) -> Ast.While (subst_expr env c, subst_block env b)
    | Ast.Call (q, args) -> Ast.Call (q, List.map (subst_expr env) args)
    | Ast.Return -> Ast.Return
    | Ast.Print e -> Ast.Print (subst_expr env e)
  in
  { s with Ast.sdesc = d }

(** Inline one call: returns the replacement statement list. *)
let expand (scope : Sema.scope) (counter : int ref) (callee : Ast.proc)
    (args : Ast.expr list) : Ast.stmt list =
  incr counter;
  let k = !counter in
  let fresh base = Printf.sprintf "%s__in%d" base k in
  (* Locals of the callee (anything that is neither a formal nor a global)
     get fresh names. *)
  let locals =
    List.filter
      (fun x ->
        match Sema.resolve scope ~formals:callee.Ast.formals x with
        | Sema.Local -> true
        | Sema.Formal _ | Sema.Global -> false)
      (Ast.mentioned_vars callee)
  in
  let env_locals = List.map (fun l -> (l, Ast.Var (fresh l))) locals in
  (* Formals: variables substitute textually (by-reference); other actuals
     bind fresh initialised temps. *)
  let prologue = ref [] in
  let env_formals =
    List.map2
      (fun f a ->
        match a with
        | Ast.Var _ -> (f, a)
        | e ->
            let t = fresh f in
            prologue := !prologue @ [ Ast.assign t e ];
            (f, Ast.Var t))
      callee.Ast.formals args
  in
  (* MiniFort locals start at 0; the inlined copy's locals must too, in
     case the callee reads one before writing it (fresh names are unused in
     the caller, but only on the first execution of this statement list —
     inside loops the previous iteration's value would leak through). *)
  let zeroing =
    List.map (fun (_, e) ->
        match e with
        | Ast.Var t -> Ast.assign t (Ast.int 0)
        | _ -> assert false)
      env_locals
  in
  !prologue @ zeroing @ subst_block (env_formals @ env_locals) callee.Ast.body

(** [inline_program ctx ?max_body ()] inlines every eligible call site.
    Returns the new program and the number of calls expanded. *)
let inline_program (ctx : Context.t) ?(max_body = 12) () : Ast.program * int =
  let prog = ctx.Context.prog in
  let scope = ctx.Context.pcg.Fsicp_callgraph.Callgraph.scope in
  let counter = ref 0 in
  let expanded = ref 0 in
  let eligible =
    List.filter (inlinable ctx ~max_body) prog.Ast.procs
    |> List.map (fun (p : Ast.proc) -> (p.Ast.pname, p))
  in
  let rec rewrite_block body = List.concat_map rewrite_stmt body
  and rewrite_stmt (s : Ast.stmt) : Ast.stmt list =
    match s.Ast.sdesc with
    | Ast.Call (q, args) -> (
        match List.assoc_opt q eligible with
        | Some callee ->
            incr expanded;
            expand scope counter callee args
        | None -> [ s ])
    | Ast.If (c, t, e) ->
        [ { s with Ast.sdesc = Ast.If (c, rewrite_block t, rewrite_block e) } ]
    | Ast.While (c, b) ->
        [ { s with Ast.sdesc = Ast.While (c, rewrite_block b) } ]
    | Ast.Assign _ | Ast.Return | Ast.Print _ -> [ s ]
  in
  let procs =
    List.map
      (fun (p : Ast.proc) ->
        (* don't rewrite inside procedures that are themselves inlined
           everywhere?  Keep them: unreachable copies are dropped by the
           PCG anyway; rewriting them too keeps the program consistent. *)
        { p with Ast.body = rewrite_block p.Ast.body })
      prog.Ast.procs
  in
  ({ prog with Ast.procs }, !expanded)
