(** AST-level constant folding and dead-branch elimination, driven by an
    interprocedural solution.

    This is the "transformed intermediate representation" half of the
    paper's backward walk: after {!Transform.insert_entry_constants} has
    made the interprocedural constants explicit, traditional constant
    folding replaces constant uses with literals, prunes branches whose
    condition folds, and drops loops that never execute.  The output is a
    valid MiniFort program with identical observable behaviour (property
    tested against the interpreter).

    The folder runs a small abstract interpretation over the statement
    tree: an environment maps variables to lattice values; [if] joins both
    arms; [while] iterates the body's effect to a fixpoint before folding
    the body (lattice height is finite so a few passes suffice); calls kill
    whatever the interprocedural MOD information says the callee may
    write. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_ipa
open Fsicp_scc

module Env = Map.Make (String)

type env = Lattice.t Env.t

let lookup env x = Option.value (Env.find_opt x env) ~default:Lattice.Bot

let join (a : env) (b : env) : env =
  (* Pointwise meet; a variable missing on one side is unknown there. *)
  Env.merge
    (fun _ va vb ->
      match (va, vb) with
      | Some va, Some vb -> Some (Lattice.meet va vb)
      | Some _, None | None, Some _ -> Some Lattice.Bot
      | None, None -> None)
    a b

let env_equal (a : env) (b : env) = Env.equal Lattice.equal a b

let rec fold_expr (env : env) (e : Ast.expr) : Ast.expr * Lattice.t =
  match e with
  | Ast.Const v -> (e, Lattice.Const v)
  | Ast.Var x -> (
      match lookup env x with
      | Lattice.Const v -> (Ast.Const v, Lattice.Const v)
      | (Lattice.Top | Lattice.Bot) as l -> (e, l))
  | Ast.Unary (op, e1) -> (
      let e1', v1 = fold_expr env e1 in
      match Lattice.eval_unop op v1 with
      | Lattice.Const v -> (Ast.Const v, Lattice.Const v)
      | l -> (Ast.Unary (op, e1'), l))
  | Ast.Binary (op, l, r) -> (
      let l', vl = fold_expr env l in
      let r', vr = fold_expr env r in
      match Lattice.eval_binop op vl vr with
      | Lattice.Const v -> (Ast.Const v, Lattice.Const v)
      | lat -> (Ast.Binary (op, l', r'), lat))

type ctx = {
  modref : Modref.t;
  formals : string list;
  formal_kills : string list array;
      (** per formal index: the formals and globals a store through that
          formal may also write (reference-parameter aliasing) *)
  global_kills : (string * string) list;
      (** pairs [(g, f)]: a store to global [g] may also write formal [f];
          empty for most procedures *)
}

let rec global_kills x = function
  | [] -> []
  | (g, f) :: tl ->
      if String.equal g x then f :: global_kills x tl else global_kills x tl

let rec kills_from (c : ctx) x i = function
  | [] -> global_kills x c.global_kills
  | f :: _ when String.equal f x -> c.formal_kills.(i)
  | _ :: tl -> kills_from c x (i + 1) tl

(* Names whose location a store to [x] may also write: they become unknown
   too.  Formals shadow globals, as in name resolution.  Runs per
   assignment and per call kill, so it allocates nothing when there is
   nothing to kill. *)
let alias_kills (c : ctx) x : string list = kills_from c x 0 c.formals

(* [p]'s kill lists, built once per procedure from its alias pairs. *)
let proc_ctx (ctx : Context.t) (p : Ast.proc) : ctx =
  let aliases = ctx.Context.aliases and name = p.Ast.pname in
  let formals = Array.of_list p.Ast.formals in
  let global_kills = ref [] in
  let formal_kills =
    Array.mapi
      (fun i f ->
        let ff = Alias.formals_aliasing_formal aliases name i in
        let fg = Alias.globals_aliasing_formal aliases name i in
        List.iter (fun g -> global_kills := (g, f) :: !global_kills) fg;
        List.map (Array.get formals) ff @ fg)
      formals
  in
  { modref = ctx.Context.modref; formals = p.Ast.formals; formal_kills;
    global_kills = List.rev !global_kills }

let assign_effect (c : ctx) (env : env) x v : env =
  let env = Env.add x v env in
  List.fold_left
    (fun env y -> Env.add y Lattice.Bot env)
    env (alias_kills c x)

(* Abstract effect of a statement list on the environment, without
   rewriting; used to reach the loop fixpoint.  Returns None for
   environments of unreachable continuations (after [return]). *)
let rec abstract_block (c : ctx) (env : env option) (body : Ast.stmt list) :
    env option =
  List.fold_left (abstract_stmt c) env body

and abstract_stmt (c : ctx) (env : env option) (s : Ast.stmt) : env option =
  match env with
  | None -> None
  | Some env -> (
      match s.Ast.sdesc with
      | Ast.Assign (x, e) ->
          let _, v = fold_expr env e in
          Some (assign_effect c env x v)
      | Ast.Print _ -> Some env
      | Ast.Return -> None
      | Ast.If (cond, t, e) -> (
          let _, cv = fold_expr env cond in
          match cv with
          | Lattice.Const v when Value.truthy v ->
              abstract_block c (Some env) t
          | Lattice.Const _ -> abstract_block c (Some env) e
          | Lattice.Top | Lattice.Bot -> (
              let envt = abstract_block c (Some env) t in
              let enve = abstract_block c (Some env) e in
              match (envt, enve) with
              | None, x | x, None -> x
              | Some a, Some b -> Some (join a b)))
      | Ast.While (cond, body) ->
          let rec fix env_in =
            match abstract_block c (Some env_in) body with
            | None -> env_in
            | Some out ->
                let joined = join env_in out in
                if env_equal joined env_in then env_in else fix joined
          in
          (* Iterate to an actual fixpoint: each non-converged pass strictly
             lowers at least one variable in a height-2 lattice over the
             finitely many program variables, so this terminates — but it
             can need as many passes as there are variables (a chain of
             dependent assignments lowers one per pass), so a fixed
             iteration bound would silently return a non-fixpoint and fold
             stale constants into the loop body. *)
          let stable = fix env in
          let _, cv = fold_expr env cond in
          (match cv with
          | Lattice.Const v when not (Value.truthy v) ->
              Some env (* loop never entered *)
          | _ -> Some stable)
      | Ast.Call (q, args) ->
          (* Kill everything the callee may write: by-reference actuals
             whose formal is in the callee's MOD, and modified globals. *)
          let env = ref env in
          let kill x =
            env := Env.add x Lattice.Bot !env;
            (* Writing through x's location also invalidates anything that
               may share it. *)
            List.iter
              (fun y -> env := Env.add y Lattice.Bot !env)
              (alias_kills c x)
          in
          List.iteri
            (fun j arg ->
              match arg with
              | Ast.Var x when Modref.formal_modified c.modref q j -> kill x
              | _ -> ())
            args;
          Modref.iter_mod_globals c.modref q kill;
          Some !env)

let rec rewrite_block (c : ctx) (env : env option) (body : Ast.stmt list) :
    Ast.stmt list * env option =
  match body with
  | [] -> ([], env)
  | s :: rest -> (
      match env with
      | None -> ([], None) (* unreachable tail: drop *)
      | Some _ ->
          let s', env' = rewrite_stmt c env s in
          let rest', env'' = rewrite_block c env' rest in
          (s' @ rest', env''))

and rewrite_stmt (c : ctx) (env : env option) (s : Ast.stmt) :
    Ast.stmt list * env option =
  match env with
  | None -> ([], None)
  | Some env -> (
      match s.Ast.sdesc with
      | Ast.Assign (x, e) ->
          let e', v = fold_expr env e in
          ( [ { s with Ast.sdesc = Ast.Assign (x, e') } ],
            Some (assign_effect c env x v) )
      | Ast.Print e ->
          let e', _ = fold_expr env e in
          ([ { s with Ast.sdesc = Ast.Print e' } ], Some env)
      | Ast.Return -> ([ s ], None)
      | Ast.If (cond, t, e) -> (
          let cond', cv = fold_expr env cond in
          match cv with
          | Lattice.Const v when Value.truthy v -> rewrite_block c (Some env) t
          | Lattice.Const _ -> rewrite_block c (Some env) e
          | Lattice.Top | Lattice.Bot -> (
              let t', envt = rewrite_block c (Some env) t in
              let e', enve = rewrite_block c (Some env) e in
              let out =
                match (envt, enve) with
                | None, x | x, None -> x
                | Some a, Some b -> Some (join a b)
              in
              ([ { s with Ast.sdesc = Ast.If (cond', t', e') } ], out)))
      | Ast.While (cond, body) -> (
          let _, cv0 = fold_expr env cond in
          match cv0 with
          | Lattice.Const v when not (Value.truthy v) ->
              ([], Some env) (* never entered: drop the loop *)
          | _ ->
              (* Rewrite the body under the loop-stable environment. *)
              let stable =
                match
                  abstract_stmt c (Some env)
                    { s with Ast.sdesc = Ast.While (cond, body) }
                with
                | Some e -> e
                | None -> env
              in
              let cond', _ = fold_expr stable cond in
              let body', _ = rewrite_block c (Some stable) body in
              ([ { s with Ast.sdesc = Ast.While (cond', body') } ], Some stable)
          )
      | Ast.Call (q, args) ->
          (* Fold compound-expression arguments only: replacing a bare
             variable with a literal would change by-reference semantics. *)
          let args' =
            List.map
              (fun a ->
                match a with
                | Ast.Var _ -> a
                | a -> fst (fold_expr env a))
              args
          in
          let env' =
            abstract_stmt c (Some env)
              { s with Ast.sdesc = Ast.Call (q, args) }
          in
          ([ { s with Ast.sdesc = Ast.Call (q, args') } ], env'))

(** Fold a whole program using the entry constants of [solution].
    Procedures unreachable from main are left untouched. *)
let fold_program (ctx : Context.t) (solution : Solution.t) : Ast.program =
  let prog = ctx.Context.prog in
  let procs =
    List.map
      (fun (p : Ast.proc) ->
        match Solution.entry_opt solution p.Ast.pname with
        | None -> p
        | Some entry ->
            let c = proc_ctx ctx p in
            let env0 =
              let e = ref Env.empty in
              List.iteri
                (fun i f ->
                  let v =
                    if i < Array.length entry.Solution.pe_formals then
                      entry.Solution.pe_formals.(i)
                    else Lattice.Bot
                  in
                  e := Env.add f v !e)
                p.Ast.formals;
              List.iter
                (fun (g, v) ->
                  let name = Prog.Var.name g in
                  if not (List.mem name p.Ast.formals) then
                    e := Env.add name v !e)
                entry.Solution.pe_globals;
              !e
            in
            let body', _ = rewrite_block c (Some env0) p.Ast.body in
            { p with Ast.body = body' })
      prog.Ast.procs
  in
  { prog with Ast.procs }
