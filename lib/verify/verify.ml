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

type event = EPrint of Term.t | ECall of callev | EFault | EDone

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

(* Renaming-apart expansion of a transparent (inlinable) callee, mirroring
   the interpreter's call semantics and {!Inline.expand}: by-reference
   actuals substitute textually, compound actuals bind fresh temporaries via
   a prologue (evaluated in argument order, like the interpreter binds
   cells), callee locals rename apart per expansion (the fresh names start
   at [Int 0] in the store, which is the interpreter's zeroing).  The '%'
   in minted names cannot appear in parsed identifiers. *)
let expand_call ~fresh ~scope (callee : Ast.proc) args k =
  let expid = !fresh in
  incr fresh;
  let subst = Hashtbl.create 8 in
  let prologue = ref [] in
  List.iteri
    (fun i formal ->
      match List.nth args i with
      | Ast.Var x -> Hashtbl.replace subst formal x
      | actual ->
          let tmp = Printf.sprintf "%%inl%d_%d" expid i in
          prologue := Ast.assign tmp actual :: !prologue;
          Hashtbl.replace subst formal tmp)
    callee.Ast.formals;
  let rename x =
    match Hashtbl.find_opt subst x with
    | Some y -> y
    | None ->
        if Sema.is_global scope x then x
        else Printf.sprintf "%%inl%d$%s" expid x
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
  List.rev !prologue @ List.map rstmt callee.Ast.body @ k

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
        | Ast.Return -> SSide { side with kont = [] }
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

(* Cell classes of the by-reference positions of a call event. *)
let classes_of ~scope (c : callev) =
  let seen = Hashtbl.create 8 in
  List.mapi
    (fun i a ->
      match a with
      | AVal -> None
      | AByref x ->
          if Sema.is_global scope x then Some (CGlobal x)
          else
            Some
              (CSlot
                 (match Hashtbl.find_opt seen x with
                 | Some j -> j
                 | None ->
                     Hashtbl.add seen x i;
                     i)))
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
    [ ([], { seed with kont = lbody }, { seed with kont = rbody }) ];
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
  (* Main loop: one (pc, left, right) state at a time; splits push the
     false branch.  All loops are bounded by [fuel]. *)
  let rec drive pc l r =
    if !stuck <> None then ()
    else if !fuel <= 0 then stuck := Some "fuel"
    else begin
      decr fuel;
      match (l.ev, r.ev) with
      | Some EDone, Some EDone ->
          reconcile ~pc l.guards r.guards;
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
      | Some EFault, Some EFault ->
          (* Both sides definitely fault: the print prefixes were already
             matched event by event, and an abort is an abort regardless of
             which pending guard or definite fault fires first. *)
          finish_path ()
      | Some (EPrint a), Some (EPrint b) ->
          reconcile ~pc l.guards r.guards;
          obligate ~pc ~what:"print" a b;
          drive pc
            { l with guards = []; ev = None }
            { r with guards = []; ev = None }
      | Some (ECall ca), Some (ECall cb) -> (
          reconcile ~pc l.guards r.guards;
          match havoc_call ~pc l r ca cb with
          | Ok (l, r) -> drive pc l r
          | Error reason -> stuck := Some reason)
      | Some _, Some _ -> stuck := Some "event-mismatch"
      | None, Some _ -> step_one pc l r `L
      | Some _, None -> step_one pc l r `R
      | None, None ->
          (* Synchronisation shortcut: identical residual computation from
             identical state proves the path without unrolling loops. *)
          if
            equal_kont l.kont r.kont
            && List.equal Term.equal
                 (List.sort Term.compare l.guards)
                 (List.sort Term.compare r.guards)
            &&
            let rel = relevant_vars ~formals ~globals l.kont in
            Sset.for_all
              (fun x -> Term.equal (lookup l.store x) (lookup r.store x))
              rel
          then finish_path ()
          else if List.length l.kont >= List.length r.kont then
            step_one pc l r `L
          else step_one pc l r `R
    end
  and step_one pc l r which =
    let side = match which with `L -> l | `R -> r in
    match step_side ~expandable ~scope ~modref ~fresh side with
    | SStuck reason -> stuck := Some reason
    | SSide side' -> (
        match which with
        | `L -> drive pc side' r
        | `R -> drive pc l side')
    | SBranch (ct, strue, sfalse) -> (
        match
          List.find_map
            (fun (t, b) -> if Term.equal t ct then Some b else None)
            pc
        with
        | Some true -> step_done pc strue l r which
        | Some false -> step_done pc sfalse l r which
        | None ->
            incr splits;
            if !splits > max_splits then stuck := Some "splits"
            else begin
              (match which with
              | `L -> work := ((ct, false) :: pc, sfalse, r) :: !work
              | `R -> work := ((ct, false) :: pc, l, sfalse) :: !work);
              step_done ((ct, true) :: pc) strue l r which
            end)
  and step_done pc side l r which =
    match which with `L -> drive pc side r | `R -> drive pc l side
  in
  let rec loop () =
    match !work with
    | [] -> ()
    | (pc, l, r) :: rest ->
        work := rest;
        if !stuck = None then begin
          drive pc l r;
          loop ()
        end
  in
  loop ();
  { pr_paths = !paths; pr_obligations = List.rev !obls; pr_stuck = !stuck }

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
        match (I.run_opt ~fuel ~trace:false ho, I.run_opt ~fuel ~trace:false ht)
        with
        | Some ro, Some rt ->
            if not (List.equal Value.equal ro.I.prints rt.I.prints) then
              raise
                (Found
                   { cx_proc = proc; cx_formals = formal_vals;
                     cx_globals = global_vals; cx_orig_prints = ro.I.prints;
                     cx_trans_prints = rt.I.prints })
        | _ ->
            (* A fault or timeout on either side: discard the sample rather
               than risk blaming a harness artefact — [Refuted] must be a
               reproducible print divergence. *)
            ()
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

(* Transparent stepping applies only to the inline transform: both sides
   step into callees the transform deems inlinable (decided on the original
   program, so the two sides agree), expanding the original body — the
   transformed side's residual calls are exactly the nested, not-yet-expanded
   ones, so the event streams line up. *)
let run_product_two ~ctx ~transform ~orig ~formals ~store ~fuel ~max_splits
    (q : Ast.proc) (cp : Ast.proc) =
  let transparent name =
    String.equal transform "inline"
    &&
    match Ast.find_proc orig name with
    | Some p0 -> Inline.inlinable ctx ~max_body:inline_max_body p0
    | None -> false
  in
  run_product
    ~expandable:(fun name ->
      if transparent name then Ast.find_proc orig name else None)
    ~scope:ctx.Context.pcg.Fsicp_callgraph.Callgraph.scope ~formals
    ~modref:ctx.Context.modref ~seed_store:store
    ~lbody:cp.Ast.body ~rbody:q.Ast.body ~fuel ~max_splits

let build_vc ~fuel ~max_splits ~backend ~mode ctx ~solution ~transform
    ~orig ~trans (q : Ast.proc) (cp : Ast.proc) =
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
    else begin
      let entry = Solution.entry_opt solution cp.Ast.pname in
      let store =
        seed_store ~transform ~entry ~formals ~globals:(Sema.globals scope)
      in
      let product =
        run_product_two ~ctx ~transform ~orig ~formals ~store ~fuel
          ~max_splits q cp
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
                     ~transform ~orig ~trans q cp)))
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
