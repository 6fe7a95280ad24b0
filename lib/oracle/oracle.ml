(** Differential soundness oracle — see the interface for the contract.

    Implementation notes: every check is expressed against the reference
    interpreter ({!Fsicp_interp.Interp}) or against another method's
    solution, never against the implementation under test, so a bug in any
    one layer (lattice, SCC kernel, wavefront scheduler, transform) shows
    up as a cross-check violation.  All checks return the {e first} witness
    only; the shrinker re-runs the whole oracle per candidate, so one
    witness is all it needs. *)

open Fsicp_lang
open Fsicp_core
module I = Fsicp_interp.Interp
module L = Fsicp_scc.Lattice
module Prog = Fsicp_prog.Prog
module Trace = Fsicp_trace.Trace

(* Fuzzing-campaign outcome tallies; the split (not the total) depends on
   which seeds are run, so both are deterministic per seed set. *)
let c_checks_ok = Trace.counter "oracle.checks_ok"
let c_checks_failed = Trace.counter "oracle.checks_failed"

type failure = { f_check : string; f_detail : string }

let pp_failure ppf f = Fmt.pf ppf "%s: %s" f.f_check f.f_detail
let default_fuel = 500_000
let fail_check f_check fmt = Fmt.kstr (fun f_detail -> { f_check; f_detail }) fmt

let reachable_procs (ctx : Context.t) : string list =
  let pcg = ctx.Context.pcg in
  Array.to_list pcg.Fsicp_callgraph.Callgraph.nodes
  |> List.map (Fsicp_callgraph.Callgraph.proc_name pcg)

(* ------------------------------------------------------------------ *)
(* The precision partial order                                         *)
(* ------------------------------------------------------------------ *)

let formal_at (e : Solution.proc_entry) i =
  if i < Array.length e.Solution.pe_formals then e.Solution.pe_formals.(i)
  else L.Bot

(* Globals absent from an entry are unknown: ⊥ (see Solution.global_value). *)
let global_at (e : Solution.proc_entry) g =
  match List.assoc_opt g e.Solution.pe_globals with
  | Some v -> v
  | None -> L.Bot

let entry_le_witness proc (ea : Solution.proc_entry)
    (eb : Solution.proc_entry) : string option =
  let n_formals =
    max
      (Array.length ea.Solution.pe_formals)
      (Array.length eb.Solution.pe_formals)
  in
  let formal_violation =
    List.find_opt
      (fun i -> not (L.le (formal_at ea i) (formal_at eb i)))
      (List.init n_formals (fun i -> i))
  in
  match formal_violation with
  | Some i ->
      Some
        (Printf.sprintf "%s: formal #%d: %s ⋢ %s" proc i
           (L.to_string (formal_at ea i))
           (L.to_string (formal_at eb i)))
  | None ->
      let keys =
        List.map fst ea.Solution.pe_globals
        @ List.map fst eb.Solution.pe_globals
        |> List.sort_uniq Prog.Var.compare
      in
      List.find_opt (fun g -> not (L.le (global_at ea g) (global_at eb g))) keys
      |> Option.map (fun g ->
             Printf.sprintf "%s: global %s: %s ⋢ %s" proc (Prog.Var.name g)
               (L.to_string (global_at ea g))
               (L.to_string (global_at eb g)))

let solution_le_witness (a : Solution.t) (b : Solution.t)
    ~(procs : string list) : string option =
  List.find_map
    (fun proc ->
      entry_le_witness proc (Solution.entry a proc) (Solution.entry b proc))
    procs

let solution_le a b ~procs = Option.is_none (solution_le_witness a b ~procs)

(* Procedures whose FS entries no PCG back edge can influence: everything
   outside the forward cone of the back-edge callees.  On these the
   optimistic jump-function fixpoints and FS's FI-seeded treatment agree
   about recursion (there is none to disagree about), so the two
   hierarchy comparisons *into* FS hold there even in cyclic programs. *)
let cycle_free_procs (ctx : Context.t) : string list =
  let module CG = Fsicp_callgraph.Callgraph in
  let pcg = ctx.Context.pcg in
  let procs = reachable_procs ctx in
  let seeds =
    List.filter_map
      (fun e -> if e.CG.back then Some e.CG.callee else None)
      pcg.CG.edges
    |> List.sort_uniq Stdlib.compare
  in
  match seeds with
  | [] -> procs
  | _ ->
      let tainted = CG.cone pcg ~seeds in
      let tainted_names =
        Array.to_list (Array.map (CG.proc_name pcg) tainted)
      in
      List.filter
        (fun p -> not (List.exists (String.equal p) tainted_names))
        procs

(* ------------------------------------------------------------------ *)
(* Interpreter-backed soundness                                        *)
(* ------------------------------------------------------------------ *)

(* Check one traced event (entry or exit) against claimed formal/global
   values: a [Const] claim must equal the observed value exactly. *)
let event_violation ~what (ev : I.entry_event) ~(formal_claim : int -> L.t)
    ~(global_claim : Prog.Var.id -> L.t) : string option =
  let formal =
    List.find_mapi
      (fun i (fname, actual) ->
        match formal_claim i with
        | L.Const claimed when not (Value.equal claimed actual) ->
            Some
              (Printf.sprintf "%s: formal %s claimed %s at %s but observed %s"
                 ev.I.ev_proc fname (Value.to_string claimed) what
                 (Value.to_string actual))
        | L.Const _ | L.Top | L.Bot -> None)
      ev.I.ev_formals
  in
  match formal with
  | Some _ as v -> v
  | None ->
      List.find_map
        (fun (gname, actual) ->
          match global_claim (Prog.Var.intern gname) with
          | L.Const claimed when not (Value.equal claimed actual) ->
              Some
                (Printf.sprintf
                   "%s: global %s claimed %s at %s but observed %s"
                   ev.I.ev_proc gname (Value.to_string claimed) what
                   (Value.to_string actual))
          | L.Const _ | L.Top | L.Bot -> None)
        ev.I.ev_globals

let check_solution_sound ?(fuel = default_fuel) (prog : Ast.program)
    (sol : Solution.t) : (unit, string) result =
  match I.run_opt ~fuel prog with
  | None -> Ok () (* diverging or erroring programs constrain nothing *)
  | Some r -> (
      List.find_map
        (fun (ev : I.entry_event) ->
          let entry = Solution.entry sol ev.I.ev_proc in
          event_violation ~what:"entry" ev
            ~formal_claim:(formal_at entry)
            ~global_claim:(fun g ->
              match List.assoc_opt g entry.Solution.pe_globals with
              | Some v -> v
              | None -> L.Bot))
        r.I.entries
      |> function
      | Some v -> Error v
      | None -> Ok ())

let check_returns_sound ?(fuel = default_fuel) (prog : Ast.program)
    (rc : Return_consts.t) : (unit, string) result =
  match I.run_opt ~fuel prog with
  | None -> Ok ()
  | Some r -> (
      List.find_map
        (fun (ev : I.entry_event) ->
          match Return_consts.summary_of rc ev.I.ev_proc with
          | None -> None
          | Some s ->
              event_violation ~what:"exit" ev
                ~formal_claim:(fun i ->
                  if i < Array.length s.Return_consts.rs_formals then
                    s.Return_consts.rs_formals.(i)
                  else L.Bot)
                ~global_claim:(fun g ->
                  match List.assoc_opt g s.Return_consts.rs_globals with
                  | Some v -> v
                  | None -> L.Bot))
        r.I.exits
      |> function
      | Some v -> Error v
      | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* The full per-program oracle                                         *)
(* ------------------------------------------------------------------ *)

let prints_of ~fuel prog = Option.map (fun r -> r.I.prints) (I.run_opt ~fuel prog)

let describe_prints = function
  | None -> "<diverges or errors>"
  | Some vs ->
      Printf.sprintf "[%s]" (String.concat "; " (List.map Value.to_string vs))

(* Observational equivalence of a transformed program against the source's
   prints.  [strict] demands divergence agree too (entry-constant
   insertion, inlining, cloning are step-for-step faithful); folding may
   legitimately terminate where the fuel-bounded source did not. *)
let equiv_violation ~fuel ~what ~reference prog' : string option =
  match Sema.check prog' with
  | Error es ->
      Some
        (Printf.sprintf "%s output is not Sema-clean: %s" what
           (Sema.errors_to_string es))
  | Ok () -> (
      let out' = prints_of ~fuel prog' in
      match (reference, out') with
      | Some a, Some b when List.equal Value.equal a b -> None
      | None, None -> None
      | None, Some _ when String.equal what "fold" ->
          (* The source ran out of fuel; the folded program doing less work
             and terminating is legitimate. *)
          None
      | _ ->
          Some
            (Printf.sprintf "%s changed behaviour: source prints %s, %s prints %s"
               what (describe_prints reference) what (describe_prints out')))

(* Solutions compared entry-for-entry; used by the jobs-determinism check,
   where any difference — value, global set, formal count — is a bug. *)
let entry_equal_witness proc (ea : Solution.proc_entry)
    (eb : Solution.proc_entry) : string option =
  if
    Array.length ea.Solution.pe_formals <> Array.length eb.Solution.pe_formals
  then Some (Printf.sprintf "%s: formal counts differ" proc)
  else
    match
      List.find_opt
        (fun i ->
          not (L.equal ea.Solution.pe_formals.(i) eb.Solution.pe_formals.(i)))
        (List.init (Array.length ea.Solution.pe_formals) (fun i -> i))
    with
    | Some i ->
        Some
          (Printf.sprintf "%s: formal #%d: %s vs %s" proc i
             (L.to_string ea.Solution.pe_formals.(i))
             (L.to_string eb.Solution.pe_formals.(i)))
    | None ->
        let keys =
          List.map fst ea.Solution.pe_globals
          @ List.map fst eb.Solution.pe_globals
          |> List.sort_uniq Prog.Var.compare
        in
        List.find_opt
          (fun g -> not (L.equal (global_at ea g) (global_at eb g)))
          keys
        |> Option.map (fun g ->
               Printf.sprintf "%s: global %s: %s vs %s" proc (Prog.Var.name g)
                 (L.to_string (global_at ea g))
                 (L.to_string (global_at eb g)))

let check_program_body ?(fuel = default_fuel) ?jobs (prog : Ast.program) :
    (unit, failure) result =
  let jobs =
    match jobs with
    | Some j -> max 2 j
    | None -> max 2 (Fsicp_par.Par.default_jobs ())
  in
  let ctx = Context.create ~jobs:1 prog in
  let procs = reachable_procs ctx in
  let fi = Fi_icp.solve ctx in
  let fs = Fs_icp.solve ~jobs:1 ~fi ctx in
  let reference = Reference.solve ctx in
  let jf v = Jump_functions.solve ctx v in
  let literal = jf Jump_functions.Literal in
  let intra = jf Jump_functions.Intra in
  let pass = jf Jump_functions.Pass_through in
  let poly = jf Jump_functions.Polynomial in
  let cc = Cc_icp.solve ctx in
  let vc = Vc_icp.solve ctx in
  let methods =
    [
      ("literal", literal);
      ("intra", intra);
      ("pass", pass);
      ("poly", poly);
      ("fi", fi);
      ("fs", fs);
      ("cc", cc);
      ("vc", vc);
      ("ref", reference);
    ]
  in
  let ( let* ) r f = match r with Some failure -> Error failure | None -> f () in
  (* (a) interpreter soundness of every method's entry constants *)
  let* () =
    List.find_map
      (fun (name, sol) ->
        match check_solution_sound ~fuel prog sol with
        | Ok () -> None
        | Error detail -> Some (fail_check ("sound:" ^ name) "%s" detail))
      methods
  in
  (* (a') soundness of the return-constants exit summaries, and of the FS
     re-solve that consumes them *)
  let rc = Return_consts.compute ctx ~fs in
  let* () =
    match check_returns_sound ~fuel prog rc with
    | Ok () -> None
    | Error detail -> Some (fail_check "sound:returns" "%s" detail)
  in
  let fs_rc =
    Fs_icp.solve ~jobs:1
      ~call_def_value:(Return_consts.as_oracle rc ~censor:(Context.censor_w ctx))
      ctx
  in
  let* () =
    match check_solution_sound ~fuel prog fs_rc with
    | Ok () -> None
    | Error detail -> Some (fail_check "sound:fs+returns" "%s" detail)
  in
  (* (b) the paper's method hierarchy, formals and globals.  The two
     comparisons *into* FS fail only where recursion is in play: at a back
     edge the jump-function methods' optimistic fixpoint can legitimately
     beat FS's pessimistic FI-plug-in, and the damage propagates only
     forward from there.  So instead of skipping cyclic programs wholesale,
     exempt exactly the procedures in or downstream of a cycle — the
     forward cone seeded by the back-edge callees — and keep checking the
     acyclic region, whose entries are untouched by any back edge. *)
  let cycle_free_procs = cycle_free_procs ctx in
  let hierarchy =
    [
      ("literal⊑intra", literal, intra, procs);
      ("intra⊑pass", intra, pass, procs);
      ("pass⊑poly", pass, poly, procs);
      ("fs⊑ref", fs, reference, procs);
      ("fs⊑cc", fs, cc, procs);
      ("fs⊑vc", fs, vc, procs);
      ("poly⊑fs", poly, fs, cycle_free_procs);
      ("fi⊑fs", fi, fs, cycle_free_procs);
    ]
  in
  let* () =
    List.find_map
      (fun (name, a, b, procs) ->
        solution_le_witness a b ~procs
        |> Option.map (fun w -> fail_check ("hierarchy:" ^ name) "%s" w))
      hierarchy
  in
  (* (c) observational equivalence of the transformations *)
  let reference_prints = prints_of ~fuel prog in
  let transforms =
    [
      ("insert", fun () -> Transform.insert_entry_constants ctx fs);
      ("fold", fun () -> Fold.fold_program ctx fs);
      ("inline", fun () -> fst (Inline.inline_program ctx ()));
      ("clone", fun () -> fst (Clone.clone_by_constants ctx ~fs ()));
    ]
  in
  let* () =
    List.find_map
      (fun (what, transform) ->
        equiv_violation ~fuel ~what ~reference:reference_prints (transform ())
        |> Option.map (fun w -> fail_check ("equiv:" ^ what) "%s" w))
      transforms
  in
  (* (d) jobs-determinism: an independent context and solve on N domains
     must reproduce the sequential solution bit-for-bit *)
  let ctx_par = Context.create ~jobs prog in
  let fs_par = Fs_icp.solve ~jobs ctx_par in
  let* () =
    List.find_map
      (fun proc ->
        entry_equal_witness proc (Solution.entry fs proc)
          (Solution.entry fs_par proc)
        |> Option.map (fun w ->
               fail_check "determinism:jobs" "jobs=1 vs jobs=%d: %s" jobs w))
      procs
  in
  let* () =
    if fs.Solution.scc_runs <> fs_par.Solution.scc_runs then
      Some
        (fail_check "determinism:jobs" "scc_runs: %d (jobs=1) vs %d (jobs=%d)"
           fs.Solution.scc_runs fs_par.Solution.scc_runs jobs)
    else None
  in
  Ok ()

let check_program ?fuel ?jobs (prog : Ast.program) : (unit, failure) result =
  Trace.span "oracle:program" @@ fun () ->
  let r = check_program_body ?fuel ?jobs prog in
  (match r with
  | Ok () -> Trace.incr c_checks_ok
  | Error _ -> Trace.incr c_checks_failed);
  r

let program_of_seed seed =
  Fsicp_workloads.Generator.generate
    (Fsicp_workloads.Generator.small_profile seed)

let check_seed ?fuel ?jobs seed =
  Trace.span
    ~args:(fun () -> [ ("seed", string_of_int seed) ])
    "oracle:seed"
    (fun () -> check_program ?fuel ?jobs (program_of_seed seed))

(* ------------------------------------------------------------------ *)
(* Translation validation                                              *)
(* ------------------------------------------------------------------ *)

let check_transform_vc ?fuel (prog : Ast.program) : (unit, failure) result =
  Trace.span "oracle:vc" @@ fun () ->
  let module V = Fsicp_verify.Verify in
  let ctx = Context.create ~jobs:1 prog in
  let fs = Fs_icp.solve ~jobs:1 ctx in
  let reports = V.verify_program ?fuel ctx ~solution:fs in
  let refuted =
    List.find_map
      (fun r ->
        List.find_map
          (fun vc ->
            match vc.V.vc_verdict with
            | V.Refuted cx -> Some (r.V.r_transform, vc, cx)
            | V.Proved | V.Inconclusive _ -> None)
          r.V.r_vcs)
      reports
  in
  match refuted with
  | None -> Ok ()
  | Some (transform, vc, cx) ->
      Error
        (fail_check ("vc:" ^ transform)
           "%s is not equivalent to %s: with %s the source prints [%s] but \
            the transformed program prints [%s]"
           vc.V.vc_proc vc.V.vc_counterpart
           (String.concat ", "
              (List.map
                 (fun (n, v) -> Printf.sprintf "%s=%s" n (Value.to_string v))
                 (cx.V.cx_formals @ cx.V.cx_globals)))
           (String.concat "; " (List.map Value.to_string cx.V.cx_orig_prints))
           (String.concat "; " (List.map Value.to_string cx.V.cx_trans_prints)))

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis: edit sequences                              *)
(* ------------------------------------------------------------------ *)

(* Edit-sequence campaign tallies, mirroring the per-program counters. *)
let c_edit_checks_ok = Trace.counter "oracle.edit_checks_ok"
let c_edit_checks_failed = Trace.counter "oracle.edit_checks_failed"

(* The canonical name-keyed print (shared with the serve daemon): two
   solutions are byte-identical iff their digests are equal. *)
let solution_digest = Solution.digest

(* Statement/expression rebuilding for the edit mutators. *)
let rec map_stmts fe body =
  List.map
    (fun (s : Ast.stmt) ->
      let sdesc =
        match s.Ast.sdesc with
        | Ast.Assign (x, e) -> Ast.Assign (x, fe e)
        | Ast.If (c, t, f) -> Ast.If (fe c, map_stmts fe t, map_stmts fe f)
        | Ast.While (c, bd) -> Ast.While (fe c, map_stmts fe bd)
        | Ast.Call (p, args) -> Ast.Call (p, List.map fe args)
        | Ast.Return -> Ast.Return
        | Ast.Print e -> Ast.Print (fe e)
      in
      { s with Ast.sdesc })
    body

let rec map_expr f (e : Ast.expr) =
  match e with
  | Ast.Const v -> f v
  | Ast.Var _ -> e
  | Ast.Unary (o, e) -> Ast.Unary (o, map_expr f e)
  | Ast.Binary (o, a, b) -> Ast.Binary (o, map_expr f a, map_expr f b)

(* Replace the [k]-th literal of the body (in map traversal order) using
   [mk]; identity when the body has fewer than [k+1] literals. *)
let replace_literal ~k ~mk body =
  let i = ref 0 in
  map_stmts
    (map_expr (fun v ->
         let j = !i in
         incr i;
         Ast.Const (if j = k then mk v else v)))
    body

let count_literals body =
  let i = ref 0 in
  ignore
    (map_stmts
       (map_expr (fun v ->
            incr i;
            Ast.Const v))
       body);
  !i

(** One random procedure edit.  The distribution leans on shape-preserving
    mutations — literal tweaks (including call-argument literals, whose
    summaries change only in their [Alit] payload), appended local
    assignments and prints, and the occasional no-op — but 2 times in 9
    it changes the program shape and forces the engine's rebuild route:
    either it appends a brand-new call site (the PCG changes), or it
    toggles a [v = v;] store at the head of the body, where [v] is a
    global or formal outside the procedure's immediate MOD (the PCG stays,
    MOD/REF widen or narrow back).  The store toggle is what exercises the
    rebuild's SSA carry-over key: a caller passing a local by reference to
    a newly stored formal keeps its own MOD/REF closures, yet its SSA must
    change.  Every produced program is [Sema]-clean by construction. *)
let random_edit (rng : Random.State.t) (prog : Ast.program) : Ast.proc =
  let procs = Array.of_list prog.Ast.procs in
  let p = procs.(Random.State.int rng (Array.length procs)) in
  let lit () = Value.Int (Random.State.int rng 199 - 99) in
  let append s = { p with Ast.body = p.Ast.body @ [ s ] } in
  let stmt sdesc = { Ast.sdesc; spos = Ast.no_pos } in
  let append_call () =
    (* Literal arguments: by-value temporaries, so Sema stays clean. *)
    let q = procs.(Random.State.int rng (Array.length procs)) in
    let args = List.map (fun _ -> Ast.Const (lit ())) q.Ast.formals in
    append (stmt (Ast.Call (q.Ast.pname, args)))
  in
  let nonlocal x = List.mem x p.Ast.formals || List.mem x prog.Ast.globals in
  let roll = Random.State.int rng 18 in
  if roll < 8 then begin
    (* Tweak one literal in place (falling back to an appended print when
       the body has none). *)
    let n = count_literals p.Ast.body in
    if n = 0 then append (stmt (Ast.Print (Ast.Const (lit ()))))
    else
      let k = Random.State.int rng n in
      { p with Ast.body = replace_literal ~k ~mk:(fun _ -> lit ()) p.Ast.body }
  end
  else if roll < 10 then append (stmt (Ast.Print (Ast.Const (lit ()))))
  else if roll < 12 then
    append (stmt (Ast.Assign ("zz_edit_tmp", Ast.Const (lit ()))))
  else if roll < 14 then p (* no-op: re-submit the current body verbatim *)
  else if roll < 16 then
    match p.Ast.body with
    | { Ast.sdesc = Ast.Assign (x, Ast.Var y); _ } :: rest
      when String.equal x y && nonlocal x ->
        { p with Ast.body = rest }
    | body -> (
        let assigned = Ast.assigned_vars p in
        match
          List.filter
            (fun v -> not (List.mem v assigned))
            (p.Ast.formals @ prog.Ast.globals)
        with
        | [] -> append_call ()
        | free ->
            let v = List.nth free (Random.State.int rng (List.length free)) in
            { p with Ast.body = stmt (Ast.Assign (v, Ast.Var v)) :: body })
  else append_call ()

let describe_outcome = function
  | Engine.Incremental { dirty; total } ->
      Printf.sprintf "incremental dirty=%d/%d" dirty total
  | Engine.Rebuilt reason -> Printf.sprintf "rebuilt (%s)" reason

(** Drive the same random edit sequence through two live engines
    ([jobs = 1] and [jobs = N]) and, after {e every} edit, demand both
    engines' solutions be byte-identical — via {!solution_digest} — to a
    from-scratch solve of the current program.  This is the incremental
    engine's whole correctness contract in one check. *)
let check_edit_sequence_body ?jobs ?(edits = 5) seed : (unit, failure) result =
  let jobs =
    match jobs with
    | Some j -> max 2 j
    | None -> max 2 (Fsicp_par.Par.default_jobs ())
  in
  let prog = program_of_seed seed in
  let rng = Random.State.make [| 0x5eed17; seed |] in
  let e1 = Engine.create ~jobs:1 prog in
  let en = Engine.create ~jobs prog in
  let rec go i =
    if i > edits then Ok ()
    else begin
      let p = random_edit rng (Engine.context e1).Context.prog in
      let o1 = Engine.edit_proc ~jobs:1 e1 p in
      let on = Engine.edit_proc ~jobs en p in
      let cur = (Engine.context e1).Context.prog in
      let ctx = Context.create ~jobs:1 cur in
      let fi = Fi_icp.solve ctx in
      let fs = Fs_icp.solve ~jobs:1 ~fi ctx in
      let d_ref = solution_digest fs in
      let d1 = solution_digest (Engine.solution e1) in
      let dn = solution_digest (Engine.solution en) in
      if
        not
          (String.equal (describe_outcome o1) (describe_outcome on))
      then
        Error
          (fail_check "incremental:outcome"
             "edit %d of %d (proc %s): jobs=1 chose %s, jobs=%d chose %s" i
             edits p.Ast.pname (describe_outcome o1) jobs
             (describe_outcome on))
      else if not (String.equal d1 d_ref) then
        Error
          (fail_check "incremental:jobs1"
             "edit %d of %d (proc %s, %s): solution diverged from from-scratch"
             i edits p.Ast.pname (describe_outcome o1))
      else if not (String.equal dn d_ref) then
        Error
          (fail_check "incremental:jobsN"
             "edit %d of %d (proc %s, %s): jobs=%d solution diverged from \
              from-scratch"
             i edits p.Ast.pname (describe_outcome on) jobs)
      else go (i + 1)
    end
  in
  match go 1 with
  | Error _ as e -> e
  | Ok () ->
      (* The beyond-the-paper methods ride the same smoke: on the
         post-edit program, cc and vc must be interpreter-sound and sit
         above FS in the extended hierarchy. *)
      let cur = (Engine.context e1).Context.prog in
      let ctx = Context.create ~jobs:1 cur in
      let fs = Fs_icp.solve ~jobs:1 ctx in
      let procs = reachable_procs ctx in
      List.find_map
        (fun (name, sol) ->
          match check_solution_sound cur sol with
          | Error detail -> Some (fail_check ("sound:" ^ name) "%s" detail)
          | Ok () ->
              solution_le_witness fs sol ~procs
              |> Option.map (fun w ->
                     fail_check ("hierarchy:fs⊑" ^ name) "after %d edits: %s"
                       edits w))
        [ ("cc", Cc_icp.solve ctx); ("vc", Vc_icp.solve ctx) ]
      |> Option.fold ~none:(Ok ()) ~some:(fun f -> Error f)

let check_edit_sequence ?jobs ?edits seed : (unit, failure) result =
  Trace.span
    ~args:(fun () -> [ ("seed", string_of_int seed) ])
    "oracle:edit-seq"
  @@ fun () ->
  let r = check_edit_sequence_body ?jobs ?edits seed in
  (match r with
  | Ok () -> Trace.incr c_edit_checks_ok
  | Error _ -> Trace.incr c_edit_checks_failed);
  r

(* ------------------------------------------------------------------ *)
(* Reproducer corpus                                                   *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let write_reproducer ~dir ~name ~failure ?seed prog =
  mkdir_p dir;
  let path = Filename.concat dir (name ^ ".mf") in
  let oc = open_out_bin path in
  let comment fmt =
    Fmt.kstr
      (fun s ->
        String.split_on_char '\n' s
        |> List.iter (fun line -> Printf.fprintf oc "// %s\n" line))
      fmt
  in
  comment "fsicp fuzz reproducer — replayed by `dune runtest` (test_oracle).";
  (match seed with Some s -> comment "seed: %d" s | None -> ());
  comment "check: %s" failure.f_check;
  comment "detail: %s" failure.f_detail;
  output_string oc (Pretty.program_to_string prog);
  close_out oc;
  path
