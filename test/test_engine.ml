(** Tests for the incremental {!Engine}: edit routing (incremental vs
    rebuild), byte-identity of incremental solutions against from-scratch
    solves, the re-solve's early cutoff on a no-op edit, SCC memo
    behaviour across edit→re-solve cycles (evictions under churn),
    {!Context.reset_scc_memos}, and an
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

(* -- early cutoff and SCC memos across edit→re-solve cycles --------------- *)

(* A no-op edit (the procedure resubmitted verbatim) analyses the edited
   procedure alone: its records equal the previous ones, so its callee [h],
   the rest of the cone, is cut off.  No memo entry is evicted. *)
let test_noop_edit_cuts_off () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse base_src) in
      (match Engine.edit_proc ~jobs:1 e (f_with 2) with
      | Engine.Incremental { dirty; _ } ->
          Alcotest.(check int) "no-op analyses only f" 1 dirty
      | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why);
      Alcotest.(check int)
        "cone: f and h" 2
        (Trace.counter_total "fs.resolve.dirty");
      Alcotest.(check int)
        "h cut off" 1
        (Trace.counter_total "fs.resolve.cutoff");
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

let toggle_edit = Test_util.toggle_edit

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

(* SPICE is far under both [Par] cutoffs, so a [jobs 2] session — load,
   an incremental edit, three rebuilds, a CC read and a VC read — and a
   [jobs 2] Figure-2 pipeline run entirely on the calling domain: they
   start no pool run and spawn no worker. *)
let test_small_session_stays_sequential () =
  let pools0 = Trace.counter_total "par.pools"
  and spawned0 = Trace.counter_total "par.domains_spawned" in
  let prog = spice () in
  let e = Engine.create ~jobs:2 prog in
  let leaf = List.nth prog.Ast.procs (List.length prog.Ast.procs - 1) in
  ignore (Engine.edit_proc ~jobs:2 e leaf);
  for _ = 1 to 3 do
    expect_rebuilt ~jobs:2 e (toggle_edit (Engine.context e).Context.prog)
  done;
  ignore (Cc_icp.solve ~jobs:2 (Engine.context e));
  ignore (Vc_icp.solve ~jobs:2 (Engine.context e));
  ignore (Driver.run ~jobs:2 prog);
  Alcotest.(check int) "par.pools" 0 (Trace.counter_total "par.pools" - pools0);
  Alcotest.(check int) "par.domains_spawned" 0
    (Trace.counter_total "par.domains_spawned" - spawned0)

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

(* Spans recorded since the last [Trace.reset], and spans not. *)
let check_spans ~present ~absent =
  let names = List.map (fun (n, _, _) -> n) (Trace.span_totals ()) in
  let check want span =
    Alcotest.(check bool)
      (Printf.sprintf "%s span %s" span (if want then "recorded" else "absent"))
      want (List.mem span names)
  in
  List.iter (check true) present;
  List.iter (check false) absent

(* A traced rebuild records one span per step.  The leaf store keeps the
   PCG, so the FI table moves to the new context ([fi:update]) and FS is
   re-solved ([fs:resolve]) from the seeds ([engine:seeds]); a new call
   builds a new PCG, and FI and FS are solved from scratch ([fi:solve],
   [fs:solve]). *)
let test_rebuild_spans () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse carry_src) in
      let steps =
        [
          "engine:edit"; "context:ipa"; "ipa:summary"; "ipa:callgraph";
          "ipa:alias"; "ipa:modref"; "context:lower"; "engine:ssa";
        ]
      in
      Trace.reset ();
      expect_rebuilt e (proc_of leaf_store);
      check_spans
        ~present:(steps @ [ "fi:update"; "engine:seeds"; "fs:resolve" ])
        ~absent:[ "fi:solve"; "fs:solve" ];
      Trace.reset ();
      expect_rebuilt e (proc_of "proc b(y) { k = k; g = g + y; call c(); }");
      check_spans
        ~present:(steps @ [ "fi:solve"; "fs:solve" ])
        ~absent:[ "fi:update"; "fs:resolve" ])

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
      check_spans
        ~present:
          [
            "engine:edit"; "engine:sema"; "engine:summary";
            "engine:invalidate"; "fi:update"; "engine:seeds"; "fs:resolve";
          ]
        ~absent:[])

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

(* -- FI carried across rebuilds that keep the PCG ----------------------------- *)

(* [f] passes its formal [a] through to [h] and by reference to [m], and
   the program constant [c] to [h]'s [z]. *)
let carry_fi_src =
  {|
blockdata { c = 3; }
global g;
proc main() { call f(1, c); }
proc f(a, b) { call m(a); call h(a, b); print c; }
proc m(x) { print x; }
proc h(y, z) { print y; print z; }
|}

(* Each store toggle changes MOD/REF but no call, so the rebuild keeps the
   PCG and moves the FI table to the new context ([fi:update], never
   [fi:solve]).  After each, FI and FS equal a fresh solve's, and the
   formal the toggle targets moved as the MOD/REF change says it must:
   [m]'s store of its formal makes [f]'s pass-through of [a] to [h] meet
   ⊥; [h]'s store of [c] removes it from the program constants, so the
   [Aglobal] argument [b] falls to ⊥; [main]'s store, made together with a
   literal change, patches the literal word. *)
let test_rebuild_carries_fi () =
  let e = Engine.create ~jobs:1 (parse carry_fi_src) in
  let formal p i = Solution.formal_value (Engine.fi_solution e) p i in
  let lat = Alcotest.testable Fsicp_scc.Lattice.pp Fsicp_scc.Lattice.equal in
  let const n = Fsicp_scc.Lattice.Const (Value.Int n) in
  Alcotest.(check lat) "h.y passed through" (const 1) (formal "h" 0);
  Alcotest.(check lat) "f.b program constant" (const 3) (formal "f" 1);
  List.iter
    (fun (src, (p, i), want) ->
      with_trace (fun () ->
          expect_rebuilt e (proc_of src);
          check_spans ~present:[ "fi:update" ] ~absent:[ "fi:solve" ]);
      Alcotest.(check string)
        ("FI after " ^ src)
        (fi_digest_of_fresh (Engine.context e).Context.prog)
        (Solution.digest (Engine.fi_solution e));
      check_matches_scratch ("FS after " ^ src) e;
      Alcotest.(check lat) (Printf.sprintf "%s.%d after %s" p i src) want
        (formal p i))
    [
      ("proc m(x) { x = x; print x; }", ("h", 0), Fsicp_scc.Lattice.Bot);
      ( "proc h(y, z) { c = c; print y; print z; }",
        ("f", 1),
        Fsicp_scc.Lattice.Bot );
      ("proc main() { g = g; call f(2, c); }", ("f", 0), const 2);
      ("proc m(x) { print x; }", ("h", 0), const 2);
      ("proc h(y, z) { print y; print z; }", ("f", 1), const 3);
    ]

(* A CC read is FS's solution relabelled on an acyclic PCG, with no kernel
   run, and CC's own solve with a back edge. *)
let test_cc_read () =
  let runs f =
    with_trace (fun () ->
        let r = f () in
        (r, Trace.counter_total "scc.runs"))
  in
  let e = Engine.create ~jobs:1 (parse carry_fi_src) in
  let cc, kernel_runs = runs (fun () -> Engine.cc_solution e) in
  Alcotest.(check int) "acyclic: no kernel run" 0 kernel_runs;
  Alcotest.(check string) "acyclic: CC's method name" Cc_icp.method_name
    cc.Solution.method_name;
  Alcotest.(check string) "acyclic: a fresh CC solve's values"
    (Solution.values_digest (Cc_icp.solve (Engine.context e)))
    (Solution.values_digest cc);
  let e = Engine.create ~jobs:1 (parse pass_src) in
  let cc, kernel_runs = runs (fun () -> Engine.cc_solution e) in
  Alcotest.(check bool) "cyclic: CC's kernel runs" true (kernel_runs > 0);
  Alcotest.(check string) "cyclic: CC's own solve"
    (Solution.digest (Cc_icp.solve (Engine.context e)))
    (Solution.digest cc)

(* -- call records stored once --------------------------------------------- *)

(* [call_records] is strictly ascending by (caller, cs_index), and
   [find_call_record] answers exactly those records at their coordinates
   and [None] at every other index, one past each end included. *)
let check_records_once what (pcg : Callgraph.t) (s : Solution.t) =
  let key (cr : Solution.callsite_record) =
    ((cr.Solution.cr_caller :> int), cr.Solution.cr_cs_index)
  in
  let recs = Solution.call_records s in
  let rec ascending = function
    | a :: (b :: _ as rest) -> compare (key a) (key b) < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  if not (ascending recs) then
    Alcotest.failf "%s: call records not strictly ascending by (caller, \
                    cs_index)" what;
  let at = Hashtbl.create 64 in
  List.iter (fun cr -> Hashtbl.replace at (key cr) cr) recs;
  Array.iter
    (fun caller ->
      for cs_index = -1 to Callgraph.n_call_sites pcg caller do
        let expected = Hashtbl.find_opt at ((caller :> int), cs_index) in
        match (expected, Solution.find_call_record s ~caller ~cs_index) with
        | None, None -> ()
        | Some cr, Some cr' when cr == cr' -> ()
        | _ ->
            Alcotest.failf "%s: find_call_record %s#%d disagrees with \
                            call_records"
              what
              (Callgraph.proc_name pcg caller)
              cs_index
      done)
    pcg.Callgraph.nodes

let check_every_method what (ctx : Context.t) =
  let pcg = ctx.Context.pcg in
  List.iter
    (fun (m, solve) -> check_records_once (what ^ " " ^ m) pcg (solve ()))
    ([
       ("fi", fun () -> Fi_icp.solve ctx);
       ("fs", fun () -> Fs_icp.solve ~jobs:1 ctx);
       ("cc", fun () -> Cc_icp.solve ~jobs:1 ctx);
       ("vc", fun () -> Vc_icp.solve ~jobs:1 ctx);
       ("ref", fun () -> Reference.solve ctx);
     ]
    @ List.map
        (fun v ->
          (Jump_functions.variant_name v, fun () -> Jump_functions.solve ctx v))
        Jump_functions.all_variants)

(* Every method on the suite and on generated cyclic programs, then the
   FI and FS solutions the engine keeps across random edits (the
   incremental [Fi_icp.update] and [Fs_icp.resolve] paths). *)
let test_call_records_stored_once () =
  List.iter
    (fun (b : Fsicp_workloads.Spec.benchmark) ->
      check_every_method b.Fsicp_workloads.Spec.b_name
        (Context.create ~jobs:1 (Fsicp_workloads.Spec.program b)))
    Fsicp_workloads.Spec.suite;
  for seed = 1 to 8 do
    let prog =
      Fsicp_workloads.Generator.(
        generate
          {
            default_profile with
            g_seed = seed;
            g_procs = 16;
            g_back_edge_prob = 0.5;
          })
    in
    let ctx = Context.create ~jobs:1 prog in
    if not (Callgraph.has_cycles ctx.Context.pcg) then
      Alcotest.failf "cyclic seed %d: the PCG has no cycle" seed;
    check_every_method (Printf.sprintf "cyclic seed %d" seed) ctx
  done;
  let incremental = ref 0 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| 0x5eed17; seed |] in
      let e = Engine.create ~jobs:2 (Oracle.program_of_seed seed) in
      for i = 1 to 6 do
        let p = Oracle.random_edit rng (Engine.context e).Context.prog in
        (match Engine.edit_proc ~jobs:2 e p with
        | Engine.Incremental _ -> incr incremental
        | Engine.Rebuilt _ -> ());
        let what = Printf.sprintf "seed %d edit %d" seed i in
        let pcg = (Engine.context e).Context.pcg in
        check_records_once (what ^ " fi") pcg (Engine.fi_solution e);
        check_records_once (what ^ " fs") pcg (Engine.solution e)
      done)
    [ 0; 3; 6; 9; 12; 15 ];
  if !incremental = 0 then Alcotest.fail "no edit took the incremental path"

let suite =
  [
    Alcotest.test_case "shape-preserving edit is incremental" `Quick
      test_incremental_route;
    Alcotest.test_case "shape change rebuilds" `Quick
      test_rebuild_on_shape_change;
    Alcotest.test_case "new procedure rebuilds" `Quick test_rebuild_on_new_proc;
    Alcotest.test_case "stats track edit routes" `Quick test_stats_track_edits;
    Alcotest.test_case "no-op edit analyses one procedure, no evictions"
      `Quick
      test_noop_edit_cuts_off;
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
    Alcotest.test_case "jobs 2 SPICE session starts no worker" `Quick
      test_small_session_stays_sequential;
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
    Alcotest.test_case "call records stored once, every method" `Quick
      test_call_records_stored_once;
    Alcotest.test_case "rebuild keeping the PCG carries FI over" `Quick
      test_rebuild_carries_fi;
    Alcotest.test_case "CC read: FS when acyclic, CC's solve otherwise"
      `Quick test_cc_read;
  ]
