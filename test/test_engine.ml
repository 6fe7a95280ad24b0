(** Tests for the incremental {!Engine}: edit routing (incremental vs
    rebuild), byte-identity of incremental solutions against from-scratch
    solves, SCC memo reuse across edit→re-solve cycles (hits on no-op
    edits, evictions under churn), {!Context.reset_scc_memos}, and an
    in-suite edit-sequence oracle smoke at [jobs ∈ {1, 4}]. *)

open Fsicp_lang
open Fsicp_core
module Callgraph = Fsicp_callgraph.Callgraph
module Trace = Fsicp_trace.Trace
module Scc = Fsicp_scc.Scc
module Oracle = Fsicp_oracle.Oracle

let parse src =
  match Parser.program_of_string src with
  | p -> p
  | exception Parser.Error (m, _) -> Alcotest.failf "parse error: %s" m

(* A procedure edit payload: a procs-only source, first procedure taken. *)
let proc_of src =
  match (parse src).Ast.procs with
  | p :: _ -> p
  | [] -> Alcotest.fail "no procedure in edit source"

let base_src =
  {|
global g;
proc main() { g = 1; call f(10); print g; }
proc f(n) { x = n + 2; g = g + x; call h(x); }
proc h(y) { g = g + y; }
|}

let f_with k =
  proc_of
    (Printf.sprintf "proc f(n) { x = n + %d; g = g + x; call h(x); }" k)

(* Counter totals under tracing; Engine work only shows up when enabled. *)
let with_trace f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let digest_of_fresh ?(jobs = 1) prog =
  let ctx = Context.create ~jobs prog in
  Solution.digest (Fs_icp.solve ~jobs ~fi:(Fi_icp.solve ctx) ctx)

let check_matches_scratch msg e =
  Alcotest.(check string)
    msg
    (digest_of_fresh (Engine.context e).Context.prog)
    (Solution.digest (Engine.solution e))

(* -- edit routing --------------------------------------------------------- *)

let test_incremental_route () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  (match Engine.edit_proc ~jobs:1 e (f_with 5) with
  | Engine.Incremental { dirty; total } ->
      Alcotest.(check int) "total reachable" 3 total;
      (* f and its downstream cone (h); main is upstream and clean. *)
      Alcotest.(check int) "dirty cone" 2 dirty
  | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why);
  check_matches_scratch "incremental edit = from-scratch" e

let test_rebuild_on_shape_change () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  (* Dropping the call to h changes f's callee sequence: a shape change. *)
  match Engine.edit_proc ~jobs:1 e (proc_of "proc f(n) { g = g + n; }") with
  | Engine.Rebuilt _ -> check_matches_scratch "rebuild = from-scratch" e
  | Engine.Incremental _ ->
      Alcotest.fail "shape-changing edit took the incremental route"

let test_rebuild_on_new_proc () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  match Engine.edit_proc ~jobs:1 e (proc_of "proc fresh(a) { print a; }") with
  | Engine.Rebuilt _ -> check_matches_scratch "new proc = from-scratch" e
  | Engine.Incremental _ ->
      Alcotest.fail "new procedure took the incremental route"

let test_stats_track_edits () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  ignore (Engine.edit_proc ~jobs:1 e (f_with 5));
  ignore (Engine.edit_proc ~jobs:1 e (proc_of "proc f(n) { g = g + n; }"));
  let get k = List.assoc k (Engine.stats e) in
  Alcotest.(check int) "edits" 2 (get "edits");
  Alcotest.(check int) "incremental_edits" 1 (get "incremental_edits");
  Alcotest.(check int) "rebuilds" 1 (get "rebuilds")

(* -- SCC memo behaviour across edit→re-solve cycles ----------------------- *)

(* A no-op edit (the procedure resubmitted verbatim) still re-drives the
   dirty cone, and every re-driven procedure must hit its SCC entry-vector
   memo: same entry vector, same memoised result, zero evictions. *)
let test_noop_edit_hits_memo () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse base_src) in
      let before_hits = Trace.counter_total "scc.memo_hits" in
      (match Engine.edit_proc ~jobs:1 e (f_with 2) with
      | Engine.Incremental { dirty; _ } ->
          Alcotest.(check int) "no-op still re-drives the cone" 2 dirty
      | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why);
      let hits = Trace.counter_total "scc.memo_hits" - before_hits in
      Alcotest.(check bool)
        (Printf.sprintf "memo hits on no-op edit (%d)" hits)
        true (hits > 0);
      Alcotest.(check int)
        "no evictions on no-op edit" 0
        (Trace.counter_total "scc.memo_evictions");
      check_matches_scratch "no-op edit = from-scratch" e)

(* Distinct literal edits give f's callee h a new entry vector each time;
   past the memo capacity the per-procedure memo must evict (the counter
   moves) while solutions stay exact. *)
let test_churn_evicts_memo () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse base_src) in
      for k = 1 to 12 do
        match Engine.edit_proc ~jobs:1 e (f_with k) with
        | Engine.Incremental _ -> ()
        | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why
      done;
      let evictions = Trace.counter_total "scc.memo_evictions" in
      Alcotest.(check bool)
        (Printf.sprintf "churn evicts memo entries (%d)" evictions)
        true (evictions > 0);
      check_matches_scratch "post-churn = from-scratch" e)

let test_reset_scc_memos () =
  with_trace (fun () ->
      let prog = parse base_src in
      let ctx = Context.create ~jobs:1 prog in
      let fi = Fi_icp.solve ctx in
      let s1 = Fs_icp.solve ~jobs:1 ~fi ctx in
      Alcotest.(check bool)
        "memo populated after first solve" true
        (Scc.memo_size (Context.ssa ctx "f") > 0);
      let hits0 = Trace.counter_total "scc.memo_hits" in
      let s2 = Fs_icp.solve ~jobs:1 ~fi ctx in
      Alcotest.(check bool)
        "warm re-solve hits the memo" true
        (Trace.counter_total "scc.memo_hits" > hits0);
      Context.reset_scc_memos ctx;
      Alcotest.(check int)
        "reset empties every memo" 0
        (Scc.memo_size (Context.ssa ctx "f"));
      let hits1 = Trace.counter_total "scc.memo_hits" in
      let runs0 = Trace.counter_total "scc.runs" in
      let s3 = Fs_icp.solve ~jobs:1 ~fi ctx in
      Alcotest.(check int)
        "cold re-solve after reset: no memo hits" hits1
        (Trace.counter_total "scc.memo_hits");
      Alcotest.(check bool)
        "cold re-solve re-ran the kernels" true
        (Trace.counter_total "scc.runs" > runs0);
      Alcotest.(check string)
        "warm solution unchanged" (Solution.digest s1) (Solution.digest s2);
      Alcotest.(check string)
        "cold solution unchanged" (Solution.digest s1) (Solution.digest s3))

(* -- edit-sequence oracle smoke ------------------------------------------- *)

(* ISSUE acceptance: 200+ random edit sequences, each checked byte-identical
   at jobs 1 and 4 against from-scratch solves after every edit. *)
let test_edit_sequence_smoke () =
  let failures = ref [] in
  for seed = 0 to 199 do
    match Oracle.check_edit_sequence ~jobs:4 ~edits:5 seed with
    | Ok () -> ()
    | Error f -> failures := (seed, f) :: !failures
  done;
  match !failures with
  | [] -> ()
  | (seed, f) :: _ ->
      Alcotest.failf "%d seed(s) failed; first: seed %d — %a"
        (List.length !failures) seed Oracle.pp_failure f

(* -- rebuild carry-over ---------------------------------------------------- *)

let spice () =
  Fsicp_workloads.Spec.(
    program (List.find (fun b -> b.b_name = "013.SPICE2G6") suite))

(* The shape-changing edit the serve benchmark sends: a [g = g;] store at
   the head of the first non-main procedure, for the first global outside
   its immediate MOD that no formal shadows. *)
let toggle_edit (prog : Ast.program) : Ast.proc =
  let store g = { Ast.sdesc = Ast.Assign (g, Ast.Var g); spos = Ast.no_pos } in
  let widen (p : Ast.proc) =
    let assigned = Ast.assigned_vars p in
    List.find_opt
      (fun g -> not (List.mem g assigned || List.mem g p.Ast.formals))
      prog.Ast.globals
  in
  List.find_map
    (fun (p : Ast.proc) ->
      match widen p with
      | Some g when p.Ast.pname <> "main" ->
          Some { p with Ast.body = store g :: p.Ast.body }
      | Some _ | None -> None)
    prog.Ast.procs
  |> Option.get

let expect_rebuilt ?(jobs = 1) e p =
  match Engine.edit_proc ~jobs e p with
  | Engine.Rebuilt _ -> ()
  | Engine.Incremental _ ->
      Alcotest.failf "edit of %s took the incremental route" p.Ast.pname

(* Is the SSA of procedure [name] physically shared between the contexts
   before and after an edit? *)
let ssa_shared (before : Context.t) (after : Context.t) name =
  Context.ssa before name == Context.ssa after name

let test_toggle_edit_carries_ssa jobs () =
  let prog = spice () in
  let e = Engine.create ~jobs prog in
  let reused0 = Trace.counter_total "ssa.reused" in
  let lowered0 = Trace.counter_total "lower.reused" in
  expect_rebuilt ~jobs e (toggle_edit prog);
  let ctx = Engine.context e in
  let total = Fsicp_callgraph.Callgraph.n_procs ctx.Context.pcg in
  let reused = Trace.counter_total "ssa.reused" - reused0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d SSA forms carried over" reused total)
    true (reused >= 100);
  Alcotest.(check int)
    "every other procedure keeps its lowering" (total - 1)
    (Trace.counter_total "lower.reused" - lowered0);
  Alcotest.(check string)
    "rebuild = cold Engine.create"
    (Solution.digest
       (Engine.solution (Engine.create ~jobs ctx.Context.prog)))
    (Solution.digest (Engine.solution e))

(* A leaf starts storing [k], which no ancestor modifies: each ancestor's
   callee closures change, so each must get fresh SSA (its call to the
   leaf now defines [k]); the sibling [c] keeps its SSA. *)
let carry_src =
  {|
global g, k;
blockdata { k = 5; }
proc main() { g = 1; call a(2); call c(); print g; }
proc a(x) { call b(x); print k; }
proc b(y) { g = g + y; }
proc c() { print k; }
|}

let leaf_store = "proc b(y) { k = k; g = g + y; }"

let test_leaf_global_store_refreshes_ancestors () =
  let e = Engine.create ~jobs:1 (parse carry_src) in
  let before = Engine.context e in
  expect_rebuilt e (proc_of leaf_store);
  let after = Engine.context e in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " gets fresh SSA") false
        (ssa_shared before after name))
    [ "main"; "a"; "b" ];
  Alcotest.(check bool)
    "sibling c keeps its SSA" true
    (ssa_shared before after "c");
  check_matches_scratch "leaf global store = from-scratch" e

(* A callee starts storing its formal while the caller passes a local by
   reference: the caller's own MOD/REF closures do not change (locals are
   invisible to them), only its callee's do — and its SSA must gain a call
   definition of the local. *)
let test_formal_store_refreshes_caller () =
  let src =
    {|
proc main() { t = 3; call f(t); print t; call h(); }
proc f(x) { print x; }
proc h() { print 1; }
|}
  in
  let e = Engine.create ~jobs:1 (parse src) in
  let before = Engine.context e in
  expect_rebuilt e (proc_of "proc f(x) { x = x; print x; }");
  let after = Engine.context e in
  Alcotest.(check bool)
    "caller gets fresh SSA" false
    (ssa_shared before after "main");
  Alcotest.(check bool)
    "unrelated h keeps its SSA" true
    (ssa_shared before after "h");
  check_matches_scratch "formal store = from-scratch" e

(* The PCG as names: nodes in order, edges in order with their back
   flags, and the back-edge bit of every call site. *)
let pcg_view (pcg : Callgraph.t) =
  let name = Callgraph.proc_name pcg in
  ( Array.to_list (Array.map name pcg.Callgraph.nodes),
    List.map
      (fun (e : Callgraph.edge) ->
        (name e.Callgraph.caller, name e.Callgraph.callee, e.Callgraph.cs_index,
         e.Callgraph.back))
      pcg.Callgraph.edges,
    Array.to_list pcg.Callgraph.nodes
    |> List.concat_map (fun caller ->
           List.init (Callgraph.n_call_sites pcg caller) (fun cs_index ->
               Callgraph.is_back_edge_at pcg ~caller ~cs_index)) )

(* Alias pairs and MOD/REF of every procedure, as sorted lists. *)
let ipa_view (ctx : Context.t) =
  List.map
    (fun (p : Ast.proc) ->
      let name = p.Ast.pname in
      let ff = ref [] and fg = ref [] in
      Fsicp_ipa.Alias.iter_pairs ctx.Context.aliases name
        ~ff:(fun i j -> ff := (i, j) :: !ff)
        ~fg:(fun i g -> fg := (i, g) :: !fg);
      let elements s =
        List.map
          (Fmt.str "%a" Fsicp_ipa.Summary.Vref.pp)
          (Fsicp_ipa.Summary.VrefSet.elements s)
      in
      let modref = ctx.Context.modref in
      ( name,
        List.sort compare !ff,
        List.sort compare !fg,
        elements (Fsicp_ipa.Modref.gmod_of modref name),
        elements (Fsicp_ipa.Modref.gref_of modref name),
        List.map Fsicp_cfg.Ir.Var.name
          (Fsicp_ipa.Modref.call_global_refs modref ~callee:name) ))
    ctx.Context.prog.Ast.procs

let check_ipa_cold msg (ctx : Context.t) =
  let cold = Context.create ~jobs:1 ctx.Context.prog in
  Alcotest.(check bool)
    (msg ^ ": PCG = cold build") true
    (pcg_view ctx.Context.pcg = pcg_view cold.Context.pcg);
  Alcotest.(check bool)
    (msg ^ ": aliases and MOD/REF = cold build") true
    (ipa_view ctx = ipa_view cold)

(* The toggle edit changes no call: the rebuild carries the PCG and the
   alias pairs over, and they, with MOD/REF, equal a cold build's.  The
   old PCG keeps answering with the old program.  An edit that adds a
   call builds both afresh. *)
let test_toggle_edit_carries_pcg () =
  let prog = spice () in
  let e = Engine.create ~jobs:1 prog in
  let before = Engine.context e in
  let reused0 = Trace.counter_total "callgraph.reused" in
  let edit = toggle_edit prog in
  expect_rebuilt e edit;
  let after = Engine.context e in
  Alcotest.(check int) "PCG carried" 1
    (Trace.counter_total "callgraph.reused" - reused0);
  Alcotest.(check bool) "aliases carried" true
    (after.Context.aliases == before.Context.aliases);
  let old_ast =
    Callgraph.find_ast before.Context.pcg edit.Ast.pname |> Option.get
  in
  Alcotest.(check bool) "old PCG keeps the old AST" true
    (old_ast != edit
    && Option.get (Callgraph.find_ast after.Context.pcg edit.Ast.pname)
       == edit);
  check_ipa_cold "toggle" after;
  let e = Engine.create ~jobs:1 (parse carry_src) in
  let before = Engine.context e in
  let reused0 = Trace.counter_total "callgraph.reused" in
  expect_rebuilt e (proc_of "proc b(y) { g = g + y; call c(); }");
  let after = Engine.context e in
  Alcotest.(check int) "new call: PCG rebuilt" 0
    (Trace.counter_total "callgraph.reused" - reused0);
  Alcotest.(check bool) "new call: aliases recomputed" true
    (after.Context.aliases != before.Context.aliases);
  check_ipa_cold "new call" after;
  check_matches_scratch "new call = from-scratch" e

(* A traced rebuild records one span per step. *)
let test_rebuild_spans () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse carry_src) in
      Trace.reset ();
      expect_rebuilt e (proc_of leaf_store);
      let json = Trace.to_chrome_json ~mode:Trace.Logical () in
      let mentions needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length json
          && (String.equal (String.sub json i n) needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun span ->
          Alcotest.(check bool)
            (span ^ " span recorded") true
            (mentions (Printf.sprintf "\"name\":\"%s\"" span)))
        [
          "engine:edit"; "context:ipa"; "ipa:summary"; "ipa:callgraph";
          "ipa:alias"; "ipa:modref"; "context:lower"; "engine:ssa";
          "fi:solve"; "fs:solve";
        ])

(* -- incremental FI, procedure-local Sema, step spans ----------------------- *)

(* [f]'s first formal reaches [g] by pass-through, and [g] calls [f] back
   over a PCG back edge: literal edits in [main] and [g] move FI entries
   and records on both a forward and a back edge. *)
let pass_src =
  {|
proc main() { call f(1, 5); }
proc f(a, b) { call g(a, b); print b; }
proc g(c, d) { if (c > 100) { call f(c, 9); } print c; }
|}

let fi_digest_of_fresh prog = Solution.digest (Fi_icp.solve (Context.create ~jobs:1 prog))

let test_fi_update_matches_scratch () =
  let e = Engine.create ~jobs:1 (parse pass_src) in
  List.iter
    (fun src ->
      (match Engine.edit_proc ~jobs:1 e (proc_of src) with
      | Engine.Incremental _ -> ()
      | Engine.Rebuilt r -> Alcotest.failf "literal edit rebuilt: %s" r);
      let prog = (Engine.context e).Context.prog in
      Alcotest.(check string)
        ("FI after " ^ src) (fi_digest_of_fresh prog)
        (Solution.digest (Engine.fi_solution e));
      check_matches_scratch ("FS after " ^ src) e)
    [
      "proc main() { call f(2, 5); }";
      "proc main() { call f(2, 9); }";
      "proc main() { call f(2, 9); }";
      "proc g(c, d) { if (c > 100) { call f(c, 8); } print c; }";
      "proc main() { call f(1, 8); }";
    ]

(* A literal argument respelled under an equal packed word (0.0 and -0.0
   share one) must still show in the FI call record. *)
let test_fi_update_respelled_literal () =
  let e = Engine.create ~jobs:1 (parse "proc main() { call f(0.0); }\nproc f(x) { print x; }") in
  let main = proc_of "proc main() { call f(0.0); }" in
  let with_arg v =
    {
      main with
      Ast.body =
        List.map
          (fun (st : Ast.stmt) ->
            match st.Ast.sdesc with
            | Ast.Call (q, [ _ ]) ->
                { st with Ast.sdesc = Ast.Call (q, [ Ast.Const (Value.Real v) ]) }
            | _ -> st)
          main.Ast.body;
    }
  in
  List.iter
    (fun v ->
      ignore (Engine.edit_proc ~jobs:1 e (with_arg v));
      Alcotest.(check string)
        (Printf.sprintf "FI after f(%h)" v)
        (fi_digest_of_fresh (Engine.context e).Context.prog)
        (Solution.digest (Engine.fi_solution e)))
    [ -0.0; 0.0; -0.0 ]

(* The error list an ill-formed edit raises. *)
let edit_errors e p =
  match Engine.edit_proc ~jobs:1 e p with
  | _ -> Alcotest.fail "ill-formed edit accepted"
  | exception Sema.Illformed es -> Sema.errors_to_string es

let test_edit_sema_matches_whole_program () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  let digest = Solution.digest (Engine.solution e) in
  List.iter
    (fun (what, src) ->
      let p = proc_of src in
      let whole =
        let prog = (Engine.context e).Context.prog in
        match
          Sema.check
            {
              prog with
              Ast.procs =
                List.map
                  (fun q -> if q.Ast.pname = p.Ast.pname then p else q)
                  prog.Ast.procs;
            }
        with
        | Ok () -> Alcotest.failf "%s: whole-program check passed" what
        | Error es -> Sema.errors_to_string es
      in
      Alcotest.(check string) what whole (edit_errors e p);
      Alcotest.(check string)
        (what ^ ": solution untouched") digest
        (Solution.digest (Engine.solution e)))
    [
      ("called procedure's formal count", "proc h(y, z) { g = g + y; }");
      ("call to an undefined procedure", "proc f(n) { call nosuch(n); }");
      ( "arity and names in one body",
        "proc f(n, n) { h = 1; call h(n, n); call f(1); }" );
    ];
  Alcotest.(check (list (pair string int)))
    "no edit counted"
    [ ("edits", 0); ("incremental_edits", 0); ("rebuilds", 0) ]
    (List.filter
       (fun (k, _) -> k <> "procs" && k <> "edit_epoch")
       (Engine.stats e))

(* A traced incremental edit records one span per step. *)
let test_incremental_spans () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse base_src) in
      Trace.reset ();
      ignore (Engine.edit_proc ~jobs:1 e (f_with 7));
      let names = List.map (fun (n, _, _) -> n) (Trace.span_totals ()) in
      List.iter
        (fun span ->
          Alcotest.(check bool) (span ^ " span recorded") true
            (List.mem span names))
        [
          "engine:edit"; "engine:sema"; "engine:summary"; "engine:invalidate";
          "fi:update"; "engine:seeds"; "fs:resolve";
        ])

(* A batch whose prefix is ill-formed on its own (a formal added to [h]
   before [f]'s call to it is fixed) still applies as a whole. *)
let test_batch_with_illformed_prefix () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  let outcomes =
    Engine.edit_procs ~jobs:1 e
      [
        proc_of "proc h(y, z) { g = g + y + z; }";
        proc_of "proc f(n) { x = n + 2; g = g + x; call h(x, 4); }";
      ]
  in
  Alcotest.(check int) "one outcome per edit" 2 (List.length outcomes);
  check_matches_scratch "batch = from-scratch" e;
  Alcotest.(check (option int)) "both edits counted" (Some 2)
    (List.assoc_opt "edits" (Engine.stats e))

let suite =
  [
    Alcotest.test_case "shape-preserving edit is incremental" `Quick
      test_incremental_route;
    Alcotest.test_case "shape change rebuilds" `Quick
      test_rebuild_on_shape_change;
    Alcotest.test_case "new procedure rebuilds" `Quick test_rebuild_on_new_proc;
    Alcotest.test_case "stats track edit routes" `Quick test_stats_track_edits;
    Alcotest.test_case "no-op edit hits SCC memos, no evictions" `Quick
      test_noop_edit_hits_memo;
    Alcotest.test_case "literal churn evicts SCC memos" `Quick
      test_churn_evicts_memo;
    Alcotest.test_case "reset_scc_memos forces cold kernels" `Quick
      test_reset_scc_memos;
    Alcotest.test_case "edit-sequence oracle: 200 seeds, jobs {1,4}" `Slow
      test_edit_sequence_smoke;
    Alcotest.test_case "SPICE toggle edit carries SSA over (jobs 1)" `Quick
      (test_toggle_edit_carries_ssa 1);
    Alcotest.test_case "SPICE toggle edit carries SSA over (jobs 2)" `Quick
      (test_toggle_edit_carries_ssa 2);
    Alcotest.test_case "leaf global store refreshes every ancestor's SSA"
      `Quick test_leaf_global_store_refreshes_ancestors;
    Alcotest.test_case "callee formal store refreshes the caller's SSA" `Quick
      test_formal_store_refreshes_caller;
    Alcotest.test_case "rebuild records a span per step" `Quick
      test_rebuild_spans;
    Alcotest.test_case "incremental FI matches a fresh solve" `Quick
      test_fi_update_matches_scratch;
    Alcotest.test_case "edit errors equal whole-program Sema" `Quick
      test_edit_sema_matches_whole_program;
    Alcotest.test_case "incremental edit records a span per step" `Quick
      test_incremental_spans;
    Alcotest.test_case "batch with an ill-formed prefix applies whole" `Quick
      test_batch_with_illformed_prefix;
    Alcotest.test_case "incremental FI keeps a respelled literal" `Quick
      test_fi_update_respelled_literal;
    Alcotest.test_case "SPICE toggle edit carries the PCG and aliases"
      `Quick test_toggle_edit_carries_pcg;
  ]
