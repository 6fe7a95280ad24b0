open Fsicp_lang
open Fsicp_core
module I = Fsicp_interp.Interp
module Modref = Fsicp_ipa.Modref
module Alias = Fsicp_ipa.Alias
module Lattice = Fsicp_scc.Lattice
module Trace = Fsicp_trace.Trace
module Smap = Map.Make (String)
module Sset = Set.Make (String)

type backend = Symbolic | Z3 of string

type counterexample = {
  cx_proc : string;
  cx_formals : (string * Value.t) list;
  cx_globals : (string * Value.t) list;
  cx_orig_prints : Value.t list;
  cx_trans_prints : Value.t list;
}

type verdict = Proved | Refuted of counterexample | Inconclusive of string

type vc = {
  vc_transform : string;
  vc_proc : string;
  vc_counterpart : string;
  vc_mode : Smt.mode;
  vc_paths : int;
  vc_obligations : Smt.obligation list;
  vc_verdict : verdict;
}

let c_vcs = Trace.counter "verify.vcs"
let c_proved = Trace.counter "verify.proved"
let c_refuted = Trace.counter "verify.refuted"
let c_inconclusive = Trace.counter "verify.inconclusive"
let c_paths = Trace.counter "verify.paths"
let c_obligations = Trace.counter "verify.obligations"

(* ------------------------------------------------------------------ *)
(* Transformations under validation                                    *)
(* ------------------------------------------------------------------ *)

let transform_names = [ "insert"; "fold"; "inline"; "clone" ]
let inline_max_body = 12

let apply_transform ctx ~solution = function
  | "insert" -> Transform.insert_entry_constants ctx solution
  | "fold" -> Fold.fold_program ctx solution
  | "inline" -> fst (Inline.inline_program ctx ~max_body:inline_max_body ())
  | "clone" -> fst (Clone.clone_by_constants ctx ~fs:solution ())
  | name -> invalid_arg (Printf.sprintf "Verify.apply_transform: %s" name)

(* [q__clone3] verifies against (and calls behave like) its base [q]. *)
let base_name name =
  let needle = "__clone" in
  let nl = String.length needle and l = String.length name in
  let rec find i best =
    if i + nl > l then best
    else find (i + 1) (if String.sub name i nl = needle then Some i else best)
  in
  match find 0 None with
  | Some i when i > 0 && i + nl < l ->
      let digits = ref true in
      String.iteri
        (fun j c -> if j >= i + nl && not (c >= '0' && c <= '9') then digits := false)
        name;
      if !digits then String.sub name 0 i else name
  | _ -> name

(* ------------------------------------------------------------------ *)
(* The product symbolic evaluator                                      *)
(* ------------------------------------------------------------------ *)

(* Per-position description of how a by-reference actual aliases: the same
   cell class must appear at the same positions on both sides for the
   uninterpreted-callee assumption to be sound (a callee can observe whether
   two formals share a cell, and whether a formal shares a cell with a
   global it reads). *)
type cell_class = CGlobal of string | CSlot of int

type argv = AByref of string | AVal

type callev = {
  c_base : string;
  c_args : argv list;
  c_vals : Term.t list;  (* observed value of each argument, in order *)
  c_greads : (string * Term.t) list;  (* globals the callee may read *)
}

(* [EDone]: the statements ran out, which ends the procedure, or the body
   of a loop under the induction rule; [EReturn] always ends the
   procedure. *)
type event = EPrint of Term.t | ECall of callev | EFault | EDone | EReturn

type sidest = {
  store : Term.t Smap.t;
  kont : Ast.stmt list;
  guards : Term.t list;  (* pending may-fault divisor terms, reversed *)
  ev : event option;
}

exception Definite_fault

let lookup store x =
  match Smap.find_opt x store with
  | Some t -> t
  | None -> Term.Cst (Value.Int 0)

(* Expression evaluation in the interpreter's pinned order: left operand,
   then right operand, then the operator applies — a division/modulus whose
   divisor is not statically known adds a pending guard at that point (see
   DESIGN.md "Evaluation order").  Raises [Definite_fault] on a statically
   zero divisor. *)
let eval_expr store guards e =
  let rec ev = function
    | Ast.Const v -> Term.Cst v
    | Ast.Var x -> lookup store x
    | Ast.Unary (op, e) -> Term.un op (ev e)
    | Ast.Binary (op, l, r) ->
        let tl = ev l in
        let tr = ev r in
        (match op with
        | Ops.Div | Ops.Mod -> (
            match tr with
            | Term.Cst v -> if not (Value.truthy v) then raise Definite_fault
            | _ -> guards := tr :: !guards)
        | _ -> ());
        Term.bin op tl tr
  in
  ev e

(* The binding rules of an expansion of [callee] at a call with actuals
   [args] (same length), shared by [expand_call] and [match_inline]: the
   caller-frame cell a callee name denotes, per the interpreter's call
   semantics. *)
type binding =
  | By_ref of string  (* formal with a variable actual: that variable *)
  | Temp of int  (* formal with a compound actual: the temporary bound to
                    actual [i] *)
  | Global  (* a global: itself *)
  | Local  (* callee local: a name minted per expansion, [Int 0] at entry *)

let binding ~scope (callee : Ast.proc) args x =
  let rec go i formals args =
    match (formals, args) with
    | f :: _, a :: _ when String.equal f x -> (
        match a with Ast.Var y -> By_ref y | _ -> Temp i)
    | _ :: formals, _ :: args -> go (i + 1) formals args
    | _ -> if Sema.is_global scope x then Global else Local
  in
  go 0 callee.Ast.formals args

(* Renaming-apart expansion of a transparent (inlinable) callee under
   [binding]: compound actuals bind fresh temporaries via a prologue
   (evaluated in argument order, like the interpreter binds cells), and
   the fresh names of callee locals start at [Int 0] in the store, which
   is the interpreter's zeroing.  The '%' in minted names cannot appear in
   parsed identifiers. *)
let expand_call ~fresh ~scope (callee : Ast.proc) args k =
  let expid = !fresh in
  incr fresh;
  let temp i = Printf.sprintf "%%inl%d_%d" expid i in
  let prologue =
    List.concat
      (List.mapi
         (fun i a -> match a with Ast.Var _ -> [] | e -> [ Ast.assign (temp i) e ])
         args)
  in
  let rename x =
    match binding ~scope callee args x with
    | By_ref y -> y
    | Temp i -> temp i
    | Global -> x
    | Local -> Printf.sprintf "%%inl%d$%s" expid x
  in
  let rec rexpr = function
    | Ast.Const _ as e -> e
    | Ast.Var x -> Ast.Var (rename x)
    | Ast.Unary (op, e) -> Ast.Unary (op, rexpr e)
    | Ast.Binary (op, l, r) -> Ast.Binary (op, rexpr l, rexpr r)
  in
  let rec rstmt s =
    let sdesc =
      match s.Ast.sdesc with
      | Ast.Assign (x, e) -> Ast.Assign (rename x, rexpr e)
      | Ast.If (c, t, f) -> Ast.If (rexpr c, List.map rstmt t, List.map rstmt f)
      | Ast.While (c, b) -> Ast.While (rexpr c, List.map rstmt b)
      | Ast.Call (q, args) -> Ast.Call (q, List.map rexpr args)
      | Ast.Return -> Ast.Return
      | Ast.Print e -> Ast.Print (rexpr e)
    in
    { s with Ast.sdesc }
  in
  prologue @ List.map rstmt callee.Ast.body @ k

type stepped =
  | SSide of sidest
  | SBranch of Term.t * sidest * sidest  (* truthiness term, true, false *)
  | SStuck of string

(* One statement of one side.  [expandable q] returns the callee body to
   step into transparently ([None] = treat the call as opaque). *)
let step_side ~expandable ~scope ~modref ~fresh side =
  match side.kont with
  | [] -> SSide { side with ev = Some EDone }
  | s :: k -> (
      let guards = ref side.guards in
      match
        match s.Ast.sdesc with
        | Ast.Assign (x, e) ->
            let t = eval_expr side.store guards e in
            SSide
              { side with store = Smap.add x t side.store; kont = k;
                guards = !guards }
        | Ast.Print e ->
            let t = eval_expr side.store guards e in
            SSide { side with kont = k; guards = !guards; ev = Some (EPrint t) }
        | Ast.Return -> SSide { side with kont = []; ev = Some EReturn }
        | Ast.If (c, tb, fb) -> (
            let ct = Term.truthiness (eval_expr side.store guards c) in
            let side = { side with guards = !guards } in
            match Term.decide ct with
            | Some true -> SSide { side with kont = tb @ k }
            | Some false -> SSide { side with kont = fb @ k }
            | None ->
                SBranch (ct, { side with kont = tb @ k },
                  { side with kont = fb @ k }))
        | Ast.While (c, body) -> (
            let ct = Term.truthiness (eval_expr side.store guards c) in
            let side = { side with guards = !guards } in
            match Term.decide ct with
            | Some true -> SSide { side with kont = body @ (s :: k) }
            | Some false -> SSide { side with kont = k }
            | None ->
                SBranch (ct, { side with kont = body @ (s :: k) },
                  { side with kont = k }))
        | Ast.Call (q, args) -> (
            match expandable q with
            | Some callee ->
                if List.length callee.Ast.formals <> List.length args then
                  SStuck "call-arity"
                else
                  SSide
                    { side with kont = expand_call ~fresh ~scope callee args k }
            | None ->
                let base = base_name q in
                let vals =
                  List.map
                    (fun a ->
                      match a with
                      | Ast.Var x -> lookup side.store x
                      | e -> eval_expr side.store guards e)
                    args
                in
                let argvs =
                  List.map
                    (fun a ->
                      match a with Ast.Var x -> AByref x | _ -> AVal)
                    args
                in
                let greads =
                  List.filter_map
                    (fun g ->
                      if Modref.global_referenced_in modref base g then
                        Some (g, lookup side.store g)
                      else None)
                    (Sema.globals scope)
                in
                SSide
                  { side with kont = k; guards = !guards;
                    ev = Some (ECall { c_base = base; c_args = argvs;
                                       c_vals = vals; c_greads = greads }) })
      with
      | r -> r
      | exception Definite_fault ->
          SSide { side with guards = !guards; ev = Some EFault })

(* Cell classes of the by-reference positions of a call event: a local's
   class is the first position that passes it. *)
let classes_of ~scope (c : callev) =
  let rec first x j = function
    | AByref y :: _ when String.equal x y -> j
    | _ :: rest -> first x (j + 1) rest
    | [] -> j
  in
  List.map
    (function
      | AVal -> None
      | AByref x ->
          if Sema.is_global scope x then Some (CGlobal x)
          else Some (CSlot (first x 0 c.c_args)))
    c.c_args

(* Variables a residual computation can still observe: everything mentioned
   in the continuation plus the final observables. *)
let relevant_vars ~formals ~globals kont =
  let acc = ref (Sset.of_list formals) in
  acc := List.fold_left (fun s g -> Sset.add g s) !acc globals;
  let add_expr e = acc := List.fold_left (fun s x -> Sset.add x s) !acc (Ast.expr_vars [] e) in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Assign (x, e) ->
          acc := Sset.add x !acc;
          add_expr e
      | Ast.If (c, _, _) | Ast.While (c, _) -> add_expr c
      | Ast.Call (_, args) -> List.iter add_expr args
      | Ast.Print e -> add_expr e
      | Ast.Return -> ())
    kont;
  !acc

(* Continuation equality modulo clone names: a [call q__clone1] on one side
   synchronises with [call q] on the other — running both from equal stores
   yields base-matching call events with equal inputs, so the modular
   callee-equivalence assumption covers the rest of the path. *)
let rec equal_kont a b = List.equal equal_stmt_base a b

and equal_stmt_base a b =
  match (a.Ast.sdesc, b.Ast.sdesc) with
  | Ast.Call (p, args), Ast.Call (p', args') ->
      String.equal (base_name p) (base_name p')
      && List.equal Ast.equal_expr args args'
  | Ast.If (c, t, f), Ast.If (c', t', f') ->
      Ast.equal_expr c c' && equal_kont t t' && equal_kont f f'
  | Ast.While (c, b1), Ast.While (c', b2) ->
      Ast.equal_expr c c' && equal_kont b1 b2
  | _ -> Ast.equal_stmt a b

(* Variables a loop body may write: assignment targets, variable actuals of
   calls, and every global in a callee's MOD (transitive, so it covers
   callees the inline VC expands transparently). *)
let written ~modref body =
  let w = ref Sset.empty in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Assign (x, _) -> w := Sset.add x !w
      | Ast.Call (q, args) ->
          List.iter
            (function Ast.Var x -> w := Sset.add x !w | _ -> ())
            args;
          Modref.iter_mod_globals modref (base_name q) (fun g ->
              w := Sset.add g !w)
      | _ -> ())
    body;
  !w

exception No_match

(* The loop-carried (left, right) pairs for the induction rule at two loops
   with entry stores [lstore] and [rstore], or [None] when the rule does
   not apply.  The conditions and bodies must have the same shape
   (statements, operators, callee base names, equal literals), which
   relates the variables they name by a bijection: the inliner renames,
   e.g. [prev] against [prev__in3].  Every related pair must agree at
   entry, and a literal may face a variable that the store binds to it and
   no body writes.  The carried pairs are the ones either body may write;
   a written global the loops never name pairs with itself. *)
let carried_pairs ~modref ~lstore ~rstore (cl, bl) (cr, br) =
  let l2r = Hashtbl.create 16 and r2l = Hashtbl.create 16 in
  let lits = ref [] in
  let bind x y =
    match (Hashtbl.find_opt l2r x, Hashtbl.find_opt r2l y) with
    | None, None ->
        Hashtbl.add l2r x y;
        Hashtbl.add r2l y x
    | Some y', Some _ when String.equal y y' -> ()
    | _ -> raise No_match
  in
  let rec expr a b =
    match (a, b) with
    | Ast.Const v, Ast.Const w -> if not (Value.equal v w) then raise No_match
    | Ast.Var x, Ast.Var y -> bind x y
    | Ast.Var x, Ast.Const c -> lits := (lstore, x, c) :: !lits
    | Ast.Const c, Ast.Var y -> lits := (rstore, y, c) :: !lits
    | Ast.Unary (o, a), Ast.Unary (o', b) when Ops.equal_unop o o' -> expr a b
    | Ast.Binary (o, a1, a2), Ast.Binary (o', b1, b2) when Ops.equal_binop o o'
      ->
        expr a1 b1;
        expr a2 b2
    | _ -> raise No_match
  and stmt a b =
    match (a.Ast.sdesc, b.Ast.sdesc) with
    | Ast.Assign (x, e), Ast.Assign (y, f) ->
        bind x y;
        expr e f
    | Ast.If (c, t, f), Ast.If (c', t', f') ->
        expr c c';
        block t t';
        block f f'
    | Ast.While (c, t), Ast.While (c', t') ->
        expr c c';
        block t t'
    | Ast.Call (p, xs), Ast.Call (q, ys)
      when String.equal (base_name p) (base_name q)
           && List.compare_lengths xs ys = 0 ->
        List.iter2 expr xs ys
    | Ast.Return, Ast.Return -> ()
    | Ast.Print e, Ast.Print f -> expr e f
    | _ -> raise No_match
  and block xs ys =
    if List.compare_lengths xs ys <> 0 then raise No_match
    else List.iter2 stmt xs ys
  in
  match
    expr cl cr;
    block bl br;
    let wl = written ~modref bl and wr = written ~modref br in
    Sset.iter (fun x -> if not (Hashtbl.mem l2r x) then bind x x) wl;
    Sset.iter (fun y -> if not (Hashtbl.mem r2l y) then bind y y) wr;
    (wl, wr)
  with
  | exception No_match -> None
  | wl, wr ->
      let pairs =
        List.sort compare (Hashtbl.fold (fun x y acc -> (x, y) :: acc) l2r [])
      in
      let carried =
        List.filter (fun (x, y) -> Sset.mem x wl || Sset.mem y wr) pairs
      in
      let holds (store, x, c) =
        (not (Sset.mem x wl || Sset.mem x wr))
        && Term.equal (lookup store x) (Term.Cst c)
      in
      if
        List.for_all
          (fun (x, y) -> Term.equal (lookup lstore x) (lookup rstore y))
          pairs
        && List.for_all holds !lits
      then Some carried
      else None

type product = {
  pr_paths : int;
  pr_obligations : Smt.obligation list;
  pr_stuck : string option;
}

let run_product ~expandable ~scope ~formals ~modref ~seed_store ~lbody ~rbody
    ~fuel ~max_splits =
  let globals = Sema.globals scope in
  let fresh = ref 1 in
  let obls = ref [] in
  let obligate ~pc ~what lhs rhs =
    if not (Term.equal lhs rhs) then
      obls :=
        { Smt.ob_what = what; ob_pc = List.rev pc; ob_lhs = lhs; ob_rhs = rhs }
        :: !obls
  in
  (* Pending-guard reconciliation at an observation point: syntactically
     equal may-fault conditions cancel; a leftover on either side must be
     provably non-faulting. *)
  let reconcile ~pc lg rg =
    let rec cancel l r =
      match (l, r) with
      | [], r -> ([], r)
      | l, [] -> (l, [])
      | x :: l', y :: r' ->
          let c = Term.compare x y in
          if c = 0 then cancel l' r'
          else if c < 0 then
            let a, b = cancel l' r in
            (x :: a, b)
          else
            let a, b = cancel l r' in
            (a, y :: b)
    in
    let sl = List.sort Term.compare lg and sr = List.sort Term.compare rg in
    let left_only, right_only = cancel sl sr in
    List.iter
      (fun g ->
        obligate ~pc ~what:"guard (original side)" (Term.truthiness g)
          (Term.Cst (Value.Int 1)))
      left_only;
    List.iter
      (fun g ->
        obligate ~pc ~what:"guard (transformed side)" (Term.truthiness g)
          (Term.Cst (Value.Int 1)))
      right_only
  in
  let fuel = ref fuel in
  let splits = ref 0 in
  let paths = ref 0 in
  let stuck = ref None in
  let work = ref [] in
  let seed = { store = seed_store; kont = []; guards = []; ev = None } in
  work :=
    [ ([], None, { seed with kont = lbody }, { seed with kont = rbody }) ];
  let fresh_sym name =
    let g = !fresh in
    incr fresh;
    Term.Sym { Term.sname = name; sgen = g }
  in
  let havoc_call ~pc l r (ca : callev) (cb : callev) =
    if not (String.equal ca.c_base cb.c_base) then Error "callee-mismatch"
    else if List.length ca.c_args <> List.length cb.c_args then
      Error "call-arity-mismatch"
    else if
      not
        (List.equal
           (fun x y ->
             match (x, y) with
             | Some (CGlobal g), Some (CGlobal h) -> String.equal g h
             | Some (CSlot i), Some (CSlot j) -> i = j
             | None, None -> true
             | _ -> false)
           (classes_of ~scope ca) (classes_of ~scope cb))
    then Error "call-alias-pattern-mismatch"
    else begin
      List.iteri
        (fun i (va, vb) ->
          obligate ~pc ~what:(Printf.sprintf "call %s arg %d" ca.c_base i) va vb)
        (List.combine ca.c_vals cb.c_vals);
      List.iter2
        (fun (g, va) (_, vb) ->
          obligate ~pc
            ~what:(Printf.sprintf "call %s global %s" ca.c_base g)
            va vb)
        ca.c_greads cb.c_greads;
      (* Havoc with shared fresh symbols: formal positions first, then
         globals, in a fixed order on both sides. *)
      let ls = ref l.store and rs = ref r.store in
      List.iteri
        (fun i (a, b) ->
          match (a, b) with
          | AByref x, AByref y when Modref.formal_modified modref ca.c_base i ->
              let s = fresh_sym (Printf.sprintf "%s#%d" ca.c_base i) in
              ls := Smap.add x s !ls;
              rs := Smap.add y s !rs
          | _ -> ())
        (List.combine ca.c_args cb.c_args);
      Modref.iter_mod_globals modref ca.c_base (fun g ->
          let s = fresh_sym g in
          ls := Smap.add g s !ls;
          rs := Smap.add g s !rs);
      Ok
        ( { l with store = !ls; guards = []; ev = None },
          { r with store = !rs; guards = []; ev = None } )
    end
  in
  let finish_path () = incr paths in
  (* Main loop: one (pc, frame, left, right) state at a time; splits push
     the false branch.  [fr] is [Some carried] inside a loop body under the
     induction rule, whose end must bring the loop-carried (left, right)
     pairs to agreement again.  All loops are bounded by [fuel]. *)
  let rec drive pc fr l r =
    if !stuck <> None then ()
    else if !fuel <= 0 then stuck := Some "fuel"
    else begin
      decr fuel;
      match (l.ev, r.ev) with
      | Some ((EDone | EReturn) as a), Some ((EDone | EReturn) as b) -> (
          reconcile ~pc l.guards r.guards;
          match (fr, a, b) with
          | Some carried, EDone, EDone ->
              (* The inductive step. *)
              List.iter
                (fun (x, y) ->
                  obligate ~pc
                    ~what:(Printf.sprintf "loop invariant %s/%s" x y)
                    (lookup l.store x) (lookup r.store y))
                carried;
              finish_path ()
          | None, _, _ | Some _, EReturn, EReturn ->
              List.iteri
                (fun i f ->
                  obligate ~pc
                    ~what:(Printf.sprintf "final formal %d (%s)" i f)
                    (lookup l.store f) (lookup r.store f))
                formals;
              List.iter
                (fun g ->
                  obligate ~pc ~what:(Printf.sprintf "final global %s" g)
                    (lookup l.store g) (lookup r.store g))
                globals;
              finish_path ()
          | Some _, _, _ -> stuck := Some "event-mismatch")
      | Some EFault, Some EFault ->
          (* Both sides definitely fault: the print prefixes were already
             matched event by event, and an abort is an abort regardless of
             which pending guard or definite fault fires first. *)
          finish_path ()
      | Some (EPrint a), Some (EPrint b) ->
          reconcile ~pc l.guards r.guards;
          obligate ~pc ~what:"print" a b;
          drive pc fr
            { l with guards = []; ev = None }
            { r with guards = []; ev = None }
      | Some (ECall ca), Some (ECall cb) -> (
          reconcile ~pc l.guards r.guards;
          match havoc_call ~pc l r ca cb with
          | Ok (l, r) -> drive pc fr l r
          | Error reason -> stuck := Some reason)
      | Some _, Some _ -> stuck := Some "event-mismatch"
      | None, Some _ -> step_one pc fr l r `L
      | Some _, None -> step_one pc fr l r `R
      | None, None ->
          (* Synchronisation shortcut: identical residual computation from
             identical state proves the path without unrolling loops.  Not
             inside an induction body, whose end must still check the
             loop-carried pairs. *)
          if
            Option.is_none fr
            && equal_kont l.kont r.kont
            && List.equal Term.equal
                 (List.sort Term.compare l.guards)
                 (List.sort Term.compare r.guards)
            &&
            let rel = relevant_vars ~formals ~globals l.kont in
            Sset.for_all
              (fun x -> Term.equal (lookup l.store x) (lookup r.store x))
              rel
          then finish_path ()
          else
            match (l.kont, r.kont) with
            | { Ast.sdesc = Ast.While _; _ } :: _,
              { Ast.sdesc = Ast.While _; _ } :: _ ->
                step_one ~loops:true pc fr l r `L
            (* A side at a loop head waits for the other to reach one. *)
            | { Ast.sdesc = Ast.While _; _ } :: _, _ -> step_one pc fr l r `R
            | _, { Ast.sdesc = Ast.While _; _ } :: _ -> step_one pc fr l r `L
            | _ ->
                if List.length l.kont >= List.length r.kont then
                  step_one pc fr l r `L
                else step_one pc fr l r `R
    end
  (* The loop-induction rule at two loop heads (DESIGN.md "Loop
     induction"), tried where the left condition would split the path:
     havoc the loop-carried pairs with shared fresh symbols, oblige the two
     conditions to agree, then run both bodies in frame [Some carried] and
     both continuations.  A loop whose condition the state decides unrolls
     instead, as that step splits no path.  Returns [false], having done
     nothing, when the rule does not apply. *)
  and induct pc fr l r =
    match (l.kont, r.kont) with
    | { Ast.sdesc = Ast.While (cl, bl); _ } :: kl,
      { Ast.sdesc = Ast.While (cr, br); _ } :: kr -> (
        let right_decided =
          match Term.truthiness (eval_expr r.store (ref []) cr) with
          | t ->
              Term.decide t <> None
              || List.exists (fun (t', _) -> Term.equal t t') pc
          | exception Definite_fault -> true
        in
        match
          if right_decided then None
          else
            carried_pairs ~modref ~lstore:l.store ~rstore:r.store (cl, bl)
              (cr, br)
        with
        | None -> false
        | Some carried -> (
            let ls, rs =
              List.fold_left
                (fun (ls, rs) (x, y) ->
                  let s = fresh_sym x in
                  (Smap.add x s ls, Smap.add y s rs))
                (l.store, r.store) carried
            in
            let gl = ref [] and gr = ref [] in
            match (eval_expr ls gl cl, eval_expr rs gr cr) with
            | exception Definite_fault -> false
            | tl, tr ->
                reconcile ~pc l.guards r.guards;
                let ct = Term.truthiness tl in
                obligate ~pc ~what:"loop condition" ct (Term.truthiness tr);
                let at store kont guards = { store; kont; guards; ev = None } in
                let body pc =
                  drive pc (Some carried) (at ls bl !gl) (at rs br !gr)
                and exit_l = at ls kl !gl
                and exit_r = at rs kr !gr in
                (match Term.decide ct with
                | Some true -> body pc
                | Some false -> drive pc fr exit_l exit_r
                | None ->
                    incr splits;
                    if !splits > max_splits then stuck := Some "splits"
                    else begin
                      work := ((ct, false) :: pc, fr, exit_l, exit_r) :: !work;
                      body ((ct, true) :: pc)
                    end);
                true))
    | _ -> false
  and step_one ?(loops = false) pc fr l r which =
    let side = match which with `L -> l | `R -> r in
    match step_side ~expandable ~scope ~modref ~fresh side with
    | SStuck reason -> stuck := Some reason
    | SSide side' -> step_done pc fr side' l r which
    | SBranch (ct, strue, sfalse) -> (
        match
          List.find_map
            (fun (t, b) -> if Term.equal t ct then Some b else None)
            pc
        with
        | Some true -> step_done pc fr strue l r which
        | Some false -> step_done pc fr sfalse l r which
        | None when loops && induct pc fr l r -> ()
        | None ->
            incr splits;
            if !splits > max_splits then stuck := Some "splits"
            else begin
              (match which with
              | `L -> work := ((ct, false) :: pc, fr, sfalse, r) :: !work
              | `R -> work := ((ct, false) :: pc, fr, l, sfalse) :: !work);
              step_done ((ct, true) :: pc) fr strue l r which
            end)
  and step_done pc fr side l r which =
    match which with `L -> drive pc fr side r | `R -> drive pc fr l side
  in
  let rec loop () =
    match !work with
    | [] -> ()
    | (pc, fr, l, r) :: rest ->
        work := rest;
        if !stuck = None then begin
          drive pc fr l r;
          loop ()
        end
  in
  loop ();
  { pr_paths = !paths; pr_obligations = List.rev !obls; pr_stuck = !stuck }

(* ------------------------------------------------------------------ *)
(* Inline VC by expansion match                                        *)
(* ------------------------------------------------------------------ *)

(* A callee the inline VC expands, with the names its body mentions in
   [Ast.mentioned_vars] order, which is the order its locals are zeroed
   in. *)
type inlinee = { in_proc : Ast.proc; in_names : string list }

let rec image x = function
  | (y, img) :: rest -> if String.equal x y then img else image x rest
  | [] -> raise No_match

(* Does [trans] equal [orig] with every call to an inlinable callee
   replaced by a renamed-apart expansion (DESIGN.md "Inline VC by expansion
   match")?  One walk over both bodies; each expansion is the compound
   actuals bound to temporaries in argument order, then the callee's
   locals zeroed, then the callee body under that expansion's map from
   callee names to caller names ([binding]).  Every minted name (temporary
   or local) must be new to the caller and to every other expansion. *)
let match_inline ~scope ~(expandable : string -> inlinee option)
    (orig : Ast.proc) (trans : Ast.proc) =
  let minted = ref [] in
  let mint m = minted := m :: !minted in
  let rec under_expr env a b =
    match (a, b) with
    | Ast.Const v, Ast.Const w -> if not (Value.equal v w) then raise No_match
    | Ast.Var x, Ast.Var y ->
        if not (String.equal (image x env) y) then raise No_match
    | Ast.Unary (o, a), Ast.Unary (o', b) when Ops.equal_unop o o' ->
        under_expr env a b
    | Ast.Binary (o, a1, a2), Ast.Binary (o', b1, b2)
      when Ops.equal_binop o o' ->
        under_expr env a1 b1;
        under_expr env a2 b2
    | _ -> raise No_match
  (* The callee statements [xs] against a prefix of [ys]; the rest of [ys]. *)
  and under_prefix env xs ys =
    match (xs, ys) with
    | [], ys -> ys
    | x :: xs, y :: ys ->
        under_stmt env x y;
        under_prefix env xs ys
    | _ :: _, [] -> raise No_match
  and under_block env xs ys =
    if under_prefix env xs ys <> [] then raise No_match
  and under_stmt env x y =
    match (x.Ast.sdesc, y.Ast.sdesc) with
    | Ast.Assign (a, e), Ast.Assign (b, f) ->
        if not (String.equal (image a env) b) then raise No_match;
        under_expr env e f
    | Ast.If (c, t, e), Ast.If (c', t', e') ->
        under_expr env c c';
        under_block env t t';
        under_block env e e'
    | Ast.While (c, b), Ast.While (c', b') ->
        under_expr env c c';
        under_block env b b'
    | Ast.Call (p, xs), Ast.Call (p', ys)
      when String.equal p p' && List.compare_lengths xs ys = 0 ->
        List.iter2 (under_expr env) xs ys
    | Ast.Print e, Ast.Print f -> under_expr env e f
    | _ -> raise No_match
  in
  (* One expansion of [callee] at actuals [args] against a prefix of [ts];
     the rest of [ts]. *)
  let expansion callee args ts =
    (* The product gets stuck on a call of the wrong arity. *)
    if List.compare_lengths callee.in_proc.Ast.formals args <> 0 then
      raise No_match;
    let rec temps i args ts acc =
      match (args, ts) with
      | [], _ -> (acc, ts)
      | Ast.Var _ :: args, ts -> temps (i + 1) args ts acc
      | e :: args, { Ast.sdesc = Ast.Assign (t, e'); _ } :: ts
        when Ast.equal_expr e e' ->
          mint t;
          temps (i + 1) args ts ((i, t) :: acc)
      | _ -> raise No_match
    in
    let tmps, ts = temps 0 args ts [] in
    let rec map names ts env =
      match names with
      | [] -> (env, ts)
      | x :: names -> (
          match binding ~scope callee.in_proc args x with
          | By_ref y -> map names ts ((x, y) :: env)
          | Temp i -> map names ts ((x, List.assoc i tmps) :: env)
          | Global ->
              (* The caller must see the global itself, not a formal of
                 that name. *)
              if List.mem x orig.Ast.formals then raise No_match;
              map names ts ((x, x) :: env)
          | Local -> (
              match ts with
              | { Ast.sdesc = Ast.Assign (m, Ast.Const (Value.Int 0)); _ } :: ts
                ->
                  mint m;
                  map names ts ((x, m) :: env)
              | _ -> raise No_match))
    in
    let env, ts = map callee.in_names ts [] in
    under_prefix env callee.in_proc.Ast.body ts
  in
  (* The caller's statements [os] against [ts], which must be used up. *)
  let rec block os ts =
    match os with
    | [] -> if ts <> [] then raise No_match
    | o :: os -> block os (stmt o ts)
  and stmt o ts =
    match o.Ast.sdesc with
    | Ast.Call (q, args) -> (
        match expandable q with
        | Some callee -> expansion callee args ts
        | None -> same o ts)
    | Ast.If (c, t, e) -> (
        match ts with
        | { Ast.sdesc = Ast.If (c', t', e'); _ } :: ts when Ast.equal_expr c c'
          ->
            block t t';
            block e e';
            ts
        | _ -> raise No_match)
    | Ast.While (c, b) -> (
        match ts with
        | { Ast.sdesc = Ast.While (c', b'); _ } :: ts when Ast.equal_expr c c'
          ->
            block b b';
            ts
        | _ -> raise No_match)
    | Ast.Assign _ | Ast.Print _ | Ast.Return -> same o ts
  and same o = function
    | t :: ts when Ast.equal_stmt o t -> ts
    | _ -> raise No_match
  in
  let rec distinct = function
    | a :: (b :: _ as rest) -> (not (String.equal a b)) && distinct rest
    | _ -> true
  in
  let rec disjoint xs ys =
    match (xs, ys) with
    | [], _ | _, [] -> true
    | x :: xs', y :: ys' ->
        let c = String.compare x y in
        c <> 0 && if c < 0 then disjoint xs' ys else disjoint xs ys'
  in
  match block orig.Ast.body trans.Ast.body with
  | exception No_match -> false
  | () ->
      (* [Ast.mentioned_vars] is sorted by [String.compare]. *)
      let minted = List.sort String.compare !minted in
      distinct minted
      && disjoint minted (Ast.mentioned_vars orig)
      && List.for_all
           (fun m -> not (List.mem m orig.Ast.formals || Sema.is_global scope m))
           minted

(* ------------------------------------------------------------------ *)
(* Concrete confirmation                                               *)
(* ------------------------------------------------------------------ *)

let harness_name = "%vcmain"

let build_harness base_prog callee formal_vals global_vals =
  let set_g =
    List.map (fun (g, v) -> Ast.assign g (Ast.Const v)) global_vals
  in
  let argnames =
    List.mapi (fun i _ -> Printf.sprintf "%%vc%d" i) formal_vals
  in
  let set_a =
    List.map2 (fun n (_, v) -> Ast.assign n (Ast.Const v)) argnames formal_vals
  in
  let call = Ast.call callee (List.map Ast.var argnames) in
  let prints =
    List.map (fun n -> Ast.print (Ast.var n)) argnames
    @ List.map (fun (g, _) -> Ast.print (Ast.var g)) global_vals
  in
  let main =
    { Ast.pname = harness_name; formals = []; body = set_g @ set_a @ (call :: prints);
      ppos = Ast.no_pos }
  in
  { base_prog with Ast.procs = base_prog.Ast.procs @ [ main ];
    main = harness_name }

exception Found of counterexample

let concrete_check ?(samples = 24) ?(fuel = 200_000) ~orig ~trans ~proc
    ~counterpart ~entry () =
  match Ast.find_proc orig counterpart with
  | None -> None
  | Some cp -> (
      let rng =
        Random.State.make
          [| 0x5eedf00d; Hashtbl.hash proc; Hashtbl.hash counterpart |]
      in
      let fixed_formal i =
        match entry with
        | Some pe when i < Array.length pe.Solution.pe_formals ->
            Lattice.const_value pe.Solution.pe_formals.(i)
        | _ -> None
      in
      let fixed_global g =
        match entry with
        | Some pe -> (
            match
              List.assoc_opt
                (Fsicp_prog.Prog.Var.intern g)
                pe.Solution.pe_globals
            with
            | Some lat -> Lattice.const_value lat
            | None -> None)
        | None -> None
      in
      let sample () =
        let rand () = Value.Int (Random.State.int rng 17 - 8) in
        let formal_vals =
          List.mapi
            (fun i f ->
              (f, match fixed_formal i with Some v -> v | None -> rand ()))
            cp.Ast.formals
        in
        let global_vals =
          List.map
            (fun g ->
              (g, match fixed_global g with Some v -> v | None -> rand ()))
            orig.Ast.globals
        in
        let ho = build_harness orig counterpart formal_vals global_vals in
        let ht = build_harness trans proc formal_vals global_vals in
        (* A fault or timeout on either side discards the sample rather
           than risk blaming a harness artefact — [Refuted] must be a
           reproducible print divergence — so the transformed side runs
           only when the original completed. *)
        match I.run_opt ~fuel ~trace:false ho with
        | None -> ()
        | Some ro -> (
            match I.run_opt ~fuel ~trace:false ht with
            | Some rt when not (List.equal Value.equal ro.I.prints rt.I.prints)
              ->
                raise
                  (Found
                     { cx_proc = proc; cx_formals = formal_vals;
                       cx_globals = global_vals; cx_orig_prints = ro.I.prints;
                       cx_trans_prints = rt.I.prints })
            | _ -> ())
      in
      try
        for _ = 1 to samples do
          sample ()
        done;
        None
      with Found cx -> Some cx)

(* ------------------------------------------------------------------ *)
(* VC construction and verdicts                                        *)
(* ------------------------------------------------------------------ *)

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Inconclusive _ -> "inconclusive"

let pp_verdict ppf = function
  | Proved -> Fmt.string ppf "proved"
  | Refuted cx ->
      Fmt.pf ppf "refuted (%s: prints %a vs %a)" cx.cx_proc
        (Fmt.list ~sep:Fmt.comma Value.pp)
        cx.cx_orig_prints
        (Fmt.list ~sep:Fmt.comma Value.pp)
        cx.cx_trans_prints
  | Inconclusive reason -> Fmt.pf ppf "inconclusive (%s)" reason

let pp_vc ppf vc =
  Fmt.pf ppf "%-7s %-24s %-12s paths=%d obligations=%d" vc.vc_transform
    vc.vc_proc (verdict_name vc.vc_verdict) vc.vc_paths
    (List.length vc.vc_obligations)

let render vc =
  let header =
    [ ("transform", vc.vc_transform); ("proc", vc.vc_proc);
      ("counterpart", vc.vc_counterpart);
      ("mode", match vc.vc_mode with Smt.MInt -> "int" | Smt.MReal -> "real");
      ("paths", string_of_int vc.vc_paths);
      ("verdict", verdict_name vc.vc_verdict) ]
  in
  Smt.render_vc ~header ~mode:vc.vc_mode vc.vc_obligations

(* Entry seeding: the VC claims equivalence relative to the solution's entry
   precondition, so formals/globals the solution proved constant start at
   that constant on both sides; everything else is a shared entry symbol.
   Inlining is solution-independent, so it gets the stronger all-symbolic
   claim. *)
let seed_store ~transform ~entry ~formals ~globals =
  let symbolic name = Term.Sym { Term.sname = name; sgen = 0 } in
  let from_lat name lat =
    match Lattice.const_value lat with
    | Some v -> Term.Cst v
    | None -> symbolic name
  in
  let store = ref Smap.empty in
  List.iteri
    (fun i f ->
      let t =
        match (transform, entry) with
        | "inline", _ | _, None -> symbolic f
        | _, Some pe when i < Array.length pe.Solution.pe_formals ->
            from_lat f pe.Solution.pe_formals.(i)
        | _ -> symbolic f
      in
      store := Smap.add f t !store)
    formals;
  List.iter
    (fun g ->
      let t =
        match (transform, entry) with
        | "inline", _ | _, None -> symbolic g
        | _, Some pe -> (
            match
              List.assoc_opt (Fsicp_prog.Prog.Var.intern g) pe.Solution.pe_globals
            with
            | Some lat -> from_lat g lat
            | None -> symbolic g)
      in
      store := Smap.add g t !store)
    globals;
  !store

(* The callees the inline VC expands: both sides step transparently into
   calls the transform deems inlinable (decided on the original program, so
   the two sides agree), expanding the original body — the transformed
   side's residual calls are exactly the nested, not-yet-expanded ones, so
   the event streams line up.  Memoised per [vcs] call; other transforms
   expand nothing. *)
let inlinees ctx ~transform =
  if not (String.equal transform "inline") then fun _ -> None
  else
    let memo = Hashtbl.create 16 in
    fun name ->
      match Hashtbl.find_opt memo name with
      | Some r -> r
      | None ->
          let r =
            match Ast.find_proc ctx.Context.prog name with
            | Some p when Inline.inlinable ctx ~max_body:inline_max_body p ->
                Some { in_proc = p; in_names = Ast.mentioned_vars p }
            | _ -> None
          in
          Hashtbl.add memo name r;
          r

let build_vc ~fuel ~max_splits ~backend ~mode ctx ~solution ~transform
    ~expandable ~orig ~trans (q : Ast.proc) (cp : Ast.proc) =
  let scope = ctx.Context.pcg.Fsicp_callgraph.Callgraph.scope in
  let formals = cp.Ast.formals in
  let finish verdict paths obligations =
    Trace.incr c_vcs;
    Trace.add c_paths paths;
    Trace.add c_obligations (List.length obligations);
    (match verdict with
    | Proved -> Trace.incr c_proved
    | Refuted _ -> Trace.incr c_refuted
    | Inconclusive _ -> Trace.incr c_inconclusive);
    { vc_transform = transform; vc_proc = q.Ast.pname;
      vc_counterpart = cp.Ast.pname; vc_mode = mode; vc_paths = paths;
      vc_obligations = obligations; vc_verdict = verdict }
  in
  if not (List.equal String.equal q.Ast.formals cp.Ast.formals) then
    finish (Inconclusive "formals-mismatch") 0 []
  else if
    not (Fsicp_callgraph.Callgraph.is_reachable ctx.Context.pcg cp.Ast.pname)
  then
    (* MOD/REF are empty for a procedure the PCG does not reach, so a call
       there would havoc nothing. *)
    finish (Inconclusive "unreached") 0 []
  else if List.exists (Sema.is_global scope) formals then
    (* A formal shadowing a global would fold two cells into one flat-store
       slot; bail out rather than risk an unsound identification. *)
    finish (Inconclusive "formal-shadows-global") 0 []
  else
    let n = List.length formals in
    let aliased = ref false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Alias.formals_may_alias ctx.Context.aliases cp.Ast.pname i j then
          aliased := true
      done;
      if Alias.globals_aliasing_formal ctx.Context.aliases cp.Ast.pname i <> []
      then aliased := true
    done;
    if !aliased then finish (Inconclusive "may-alias") 0 []
    else if
      String.equal transform "inline" && match_inline ~scope ~expandable cp q
    then finish Proved 1 []
    else begin
      let entry = Solution.entry_opt solution cp.Ast.pname in
      let store =
        seed_store ~transform ~entry ~formals ~globals:(Sema.globals scope)
      in
      let product =
        run_product
          ~expandable:(fun name ->
            Option.map (fun i -> i.in_proc) (expandable name))
          ~scope ~formals ~modref:ctx.Context.modref ~seed_store:store
          ~lbody:cp.Ast.body ~rbody:q.Ast.body ~fuel ~max_splits
      in
      let obligations = product.pr_obligations in
      let paths = product.pr_paths in
      let confirm () =
        concrete_check ~orig ~trans ~proc:q.Ast.pname
          ~counterpart:cp.Ast.pname ~entry ()
      in
      match (product.pr_stuck, obligations) with
      | None, [] -> finish Proved paths []
      | stuck, obls -> (
          match confirm () with
          | Some cx -> finish (Refuted cx) paths obls
          | None -> (
              let reason =
                match stuck with
                | Some r -> r
                | None -> Printf.sprintf "%d obligations" (List.length obls)
              in
              match backend with
              | Z3 cmd
                when stuck = None && obls <> [] && mode = Smt.MInt
                     && List.for_all (Smt.supported ~mode) obls -> (
                  let text =
                    Smt.render_vc
                      ~header:
                        [ ("transform", transform); ("proc", q.Ast.pname) ]
                      ~mode obls
                  in
                  match Smt.solve_with ~cmd text with
                  | Ok answers
                    when List.length answers = List.length obls
                         && List.for_all (( = ) Smt.Unsat) answers ->
                      finish Proved paths obls
                  | Ok _ -> finish (Inconclusive (reason ^ "; z3: not all unsat")) paths obls
                  | Error e -> finish (Inconclusive (reason ^ "; " ^ e)) paths obls)
              | _ -> finish (Inconclusive reason) paths obls))
    end

let vcs ?(fuel = 20_000) ?(max_splits = 64) ?(backend = Symbolic) ctx
    ~solution ~transform ~trans =
  let orig = ctx.Context.prog in
  let mode = Smt.mode_of_programs orig trans in
  let expandable = inlinees ctx ~transform in
  List.filter_map
    (fun (q : Ast.proc) ->
      let cp =
        match Ast.find_proc orig q.Ast.pname with
        | Some p -> Some p
        | None -> Ast.find_proc orig (base_name q.Ast.pname)
      in
      match cp with
      | None -> None
      | Some cp ->
          if
            String.equal q.Ast.pname cp.Ast.pname
            && List.equal String.equal q.Ast.formals cp.Ast.formals
            && Ast.equal_block q.Ast.body cp.Ast.body
          then None
          else
            Some
              (Trace.span "verify:vc"
                 ~args:(fun () ->
                   [ ("transform", transform); ("proc", q.Ast.pname) ])
                 (fun () ->
                   build_vc ~fuel ~max_splits ~backend ~mode ctx ~solution
                     ~transform ~expandable ~orig ~trans q cp)))
    trans.Ast.procs

type report = { r_transform : string; r_vcs : vc list }

let verify_program ?fuel ?max_splits ?backend ctx ~solution =
  List.map
    (fun transform ->
      let trans = apply_transform ctx ~solution transform in
      { r_transform = transform;
        r_vcs = vcs ?fuel ?max_splits ?backend ctx ~solution ~transform ~trans
      })
    transform_names
