(** Translation validation ({!Fsicp_verify}): golden SMT-LIB2 fixtures for
    the calibrated suite, unit tests for the {!Term} normalisation rules,
    qcheck properties tying [Proved] verdicts to the interpreter, and the
    injected-bug drill — a [Fold] that drops a side-effecting call must be
    [Refuted] with an interpreter-confirmed counterexample. *)

open Fsicp_lang
open Fsicp_core
module V = Fsicp_verify.Verify
module Term = Fsicp_verify.Term
module Smt = Fsicp_verify.Smt

let parse = Test_util.parse

let root_dir = Test_util.source_root

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load base =
  let path =
    Filename.concat (Filename.concat root_dir "testdata") (base ^ ".mf")
  in
  let prog = Parser.program_of_string (read_file path) in
  Sema.check_exn prog;
  prog

let corpus = [ "aliasing"; "bank"; "modes"; "newton"; "recursive" ]

let render_all ~jobs prog =
  let ctx = Context.create ~jobs prog in
  let fs = Fs_icp.solve ~jobs ctx in
  V.verify_program ctx ~solution:fs
  |> List.concat_map (fun r -> r.V.r_vcs)
  |> List.map V.render |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Golden SMT-LIB2 fixtures, byte-compared at jobs 1 and 4             *)
(* ------------------------------------------------------------------ *)

let test_golden ~jobs base () =
  let expected =
    read_file
      (Filename.concat root_dir
         (Printf.sprintf "test/golden/%s.smt2.expected" base))
  in
  Alcotest.(check string)
    (Printf.sprintf "%s VC dump matches fixture (jobs=%d)" base jobs)
    expected
    (render_all ~jobs (load base))

(* ------------------------------------------------------------------ *)
(* Calibrated suite: never Refuted                                     *)
(* ------------------------------------------------------------------ *)

let test_never_refuted base () =
  let prog = load base in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  List.iter
    (fun r ->
      List.iter
        (fun vc ->
          match vc.V.vc_verdict with
          | V.Refuted _ ->
              Alcotest.failf "%s: %s/%s refuted on the calibrated suite" base
                vc.V.vc_transform vc.V.vc_proc
          | V.Proved | V.Inconclusive _ -> ())
        r.V.r_vcs)
    (V.verify_program ctx ~solution:fs)

(* ------------------------------------------------------------------ *)
(* Term normalisation                                                  *)
(* ------------------------------------------------------------------ *)

let term_testable = Alcotest.testable Term.pp Term.equal
let ci v = Term.Cst (Value.Int v)
let sym n = Term.Sym { Term.sname = n; sgen = 0 }

let test_term_norm () =
  (* Constant operands fold through the interpreter's own Value.eval_*. *)
  Alcotest.check term_testable "2+3 folds" (ci 5)
    (Term.bin Ops.Add (ci 2) (ci 3));
  Alcotest.check term_testable "-(-x) cancels" (sym "x")
    (Term.un Ops.Neg (Term.un Ops.Neg (sym "x")));
  (* Faulting combinations are never folded away: the fault is the
     engine's guard discipline, not the algebra's. *)
  (match Term.bin Ops.Div (ci 1) (ci 0) with
  | Term.Bin (Ops.Div, _, _) -> ()
  | t -> Alcotest.failf "1/0 must stay symbolic, got %a" Term.pp t);
  (* Identities fire only on provably-int terms: a comparison is always
     Int 0/1, so x==y is eligible... *)
  let cmp = Term.bin Ops.Eq (sym "x") (sym "y") in
  Alcotest.check term_testable "int-typed t+0 = t" cmp
    (Term.bin Ops.Add cmp (ci 0));
  Alcotest.check term_testable "int-typed t*0 = 0" (ci 0)
    (Term.bin Ops.Mul cmp (ci 0));
  Alcotest.check term_testable "int-typed t==t = 1" (ci 1)
    (Term.bin Ops.Eq cmp cmp);
  (* ...but a bare symbol might be real (-0.0 + 0.0 = 0.0 would change
     the printed sign; nan*0 is nan), so none of them fire. *)
  (match Term.bin Ops.Add (sym "x") (ci 0) with
  | Term.Bin (Ops.Add, _, _) -> ()
  | t -> Alcotest.failf "unknown-typed x+0 must not simplify, got %a" Term.pp t);
  (match Term.bin Ops.Mul (sym "x") (ci 0) with
  | Term.Bin (Ops.Mul, _, _) -> ()
  | t -> Alcotest.failf "unknown-typed x*0 must not simplify, got %a" Term.pp t);
  (match Term.bin Ops.Eq (sym "x") (sym "x") with
  | Term.Bin (Ops.Eq, _, _) -> ()
  | t -> Alcotest.failf "unknown-typed x==x must not simplify, got %a" Term.pp t);
  (* Truthiness: constants decide, 0/1-valued operators pass through,
     anything else becomes t != 0. *)
  Alcotest.check term_testable "truthiness of 7" (ci 1) (Term.truthiness (ci 7));
  Alcotest.check term_testable "truthiness of a comparison is itself" cmp
    (Term.truthiness cmp);
  (match Term.truthiness (sym "x") with
  | Term.Bin (Ops.Ne, _, _) -> ()
  | t -> Alcotest.failf "truthiness of a symbol is x != 0, got %a" Term.pp t);
  Alcotest.(check (option bool))
    "decide is static truth" (Some false)
    (Term.decide (ci 0));
  Alcotest.(check (option bool)) "decide unknown" None (Term.decide (sym "x"))

let test_term_syms () =
  let t =
    Term.Bin
      ( Ops.Add,
        Term.Sym { Term.sname = "b"; sgen = 1 },
        Term.Bin (Ops.Mul, sym "a", Term.Sym { Term.sname = "b"; sgen = 1 }) )
  in
  Alcotest.(check (list (pair string int)))
    "syms deduplicated and sorted by (name, gen)"
    [ ("a", 0); ("b", 1) ]
    (List.map (fun s -> (s.Term.sname, s.Term.sgen)) (Term.syms t))

(* ------------------------------------------------------------------ *)
(* Proved agrees with the interpreter on random concrete inputs        *)
(* ------------------------------------------------------------------ *)

let test_proved_agrees_qcheck =
  Test_util.qcheck ~count:10
    ~name:"every Proved VC agrees with the interpreter on 100 inputs"
    Test_util.seed_gen (fun seed ->
      let prog = Fsicp_oracle.Oracle.program_of_seed seed in
      let ctx = Context.create ~jobs:1 prog in
      let fs = Fs_icp.solve ~jobs:1 ctx in
      List.iter
        (fun r ->
          let trans = V.apply_transform ctx ~solution:fs r.V.r_transform in
          List.iter
            (fun vc ->
              match vc.V.vc_verdict with
              | V.Proved -> (
                  let entry = Solution.entry_opt fs vc.V.vc_counterpart in
                  match
                    V.concrete_check ~samples:100 ~orig:prog ~trans
                      ~proc:vc.V.vc_proc ~counterpart:vc.V.vc_counterpart
                      ~entry ()
                  with
                  | None -> ()
                  | Some cx ->
                      QCheck2.Test.fail_reportf
                        "seed %d: %s/%s Proved but interpreter disagrees: \
                         orig prints [%a], trans prints [%a]"
                        seed vc.V.vc_transform vc.V.vc_proc
                        Fmt.(list ~sep:comma Value.pp)
                        cx.V.cx_orig_prints
                        Fmt.(list ~sep:comma Value.pp)
                        cx.V.cx_trans_prints)
              | V.Refuted _ ->
                  QCheck2.Test.fail_reportf
                    "seed %d: %s/%s refuted a pipeline transform" seed
                    vc.V.vc_transform vc.V.vc_proc
              | V.Inconclusive _ -> ())
            r.V.r_vcs)
        (V.verify_program ctx ~solution:fs);
      true)

(* ------------------------------------------------------------------ *)
(* Injected-bug drill: Fold drops a side-effecting call                *)
(* ------------------------------------------------------------------ *)

let drop_call_in proc_name prog =
  {
    prog with
    Ast.procs =
      List.map
        (fun (p : Ast.proc) ->
          if String.equal p.Ast.pname proc_name then
            {
              p with
              Ast.body =
                List.filter
                  (fun s ->
                    match s.Ast.sdesc with Ast.Call _ -> false | _ -> true)
                  p.Ast.body;
            }
          else p)
        prog.Ast.procs;
  }

let test_injected_bug_drill () =
  let prog =
    parse
      {|
        global g;
        proc main() { g = 0; call work(3); print g; }
        proc work(n) { call bump(); print n; }
        proc bump() { g = g + 1; print g; }
      |}
  in
  let trans = drop_call_in "work" prog in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let vcs = V.vcs ctx ~solution:fs ~transform:"fold" ~trans in
  let work =
    match List.find_opt (fun vc -> String.equal vc.V.vc_proc "work") vcs with
    | Some vc -> vc
    | None -> Alcotest.fail "no VC generated for the modified procedure"
  in
  match work.V.vc_verdict with
  | V.Refuted cx ->
      (* The verdict is only ever assembled from an interpreter-confirmed
         counterexample; re-confirm it here from scratch. *)
      Alcotest.(check bool)
        "counterexample print sequences differ" false
        (List.length cx.V.cx_orig_prints = List.length cx.V.cx_trans_prints
        && List.for_all2 Value.equal cx.V.cx_orig_prints cx.V.cx_trans_prints);
      Alcotest.(check string) "counterexample names the procedure" "work"
        cx.V.cx_proc
  | v ->
      Alcotest.failf "dropping a side-effecting call must refute, got %a"
        V.pp_verdict v

(* A pure statement dropped from a procedure whose result is still
   printed: refuted through the final-store obligations rather than the
   event stream. *)
let test_injected_bug_assign () =
  let prog =
    parse
      {|
        global g;
        proc main() { u = 5; call twice(u); print u; print g; }
        proc twice(x) { g = x; x = x + x; }
      |}
  in
  let drop_assigns p =
    {
      p with
      Ast.procs =
        List.map
          (fun (pr : Ast.proc) ->
            if String.equal pr.Ast.pname "twice" then
              {
                pr with
                Ast.body =
                  List.filter
                    (fun s ->
                      match s.Ast.sdesc with
                      | Ast.Assign ("x", _) -> false
                      | _ -> true)
                    pr.Ast.body;
              }
            else pr)
          p.Ast.procs;
    }
  in
  let trans = drop_assigns prog in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let vcs = V.vcs ctx ~solution:fs ~transform:"fold" ~trans in
  let twice =
    match List.find_opt (fun vc -> String.equal vc.V.vc_proc "twice") vcs with
    | Some vc -> vc
    | None -> Alcotest.fail "no VC generated for the modified procedure"
  in
  match twice.V.vc_verdict with
  | V.Refuted _ -> ()
  | v ->
      Alcotest.failf
        "dropping the by-ref formal update must refute, got %a" V.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Fold loop fixpoint regression                                       *)
(* ------------------------------------------------------------------ *)

(* A while body with a chain of [n] dependent assignments lowers one
   variable per abstract pass, so reaching the loop fixpoint needs ~n
   passes.  The old iteration bound (64) silently returned a non-fixpoint
   for longer chains and folded stale constants into the loop body —
   observably wrong prints.  The interpreter is the judge. *)
let test_fold_long_chain_fixpoint () =
  let n = 70 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "proc main() {\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  x%d = 0;\n" i)
  done;
  Buffer.add_string buf "  while (x0 < 100) {\n";
  for i = n - 1 downto 1 do
    Buffer.add_string buf (Printf.sprintf "    x%d = x%d;\n" i (i - 1))
  done;
  Buffer.add_string buf "    x0 = x0 + 1;\n  }\n";
  Buffer.add_string buf (Printf.sprintf "  print x%d;\n}\n" (n - 1));
  let prog = parse (Buffer.contents buf) in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let folded = Fold.fold_program ctx fs in
  let run p =
    match Fsicp_interp.Interp.run_opt ~fuel:500_000 p with
    | Some r -> r.Fsicp_interp.Interp.prints
    | None -> Alcotest.fail "interpreter did not finish"
  in
  Alcotest.(check (list Test_util.value_testable))
    "fold preserves prints across a 70-deep dependence chain" (run prog)
    (run folded)

(* ------------------------------------------------------------------ *)
(* Pinned evaluation order (DESIGN.md "Evaluation order")              *)
(* ------------------------------------------------------------------ *)

(* Non-short-circuit operators: the right operand of && / || is always
   evaluated, so a fault in it must survive folding even when the left
   operand already decides the result.  All three judges — interpreter,
   Fold output, symbolic engine — must agree. *)
let test_eval_order_pinned () =
  let prog =
    parse
      {|
        proc main() {
          z = 0;
          print 1;
          if (0 && (1 / z)) { print 2; } else { print 3; }
        }
      |}
  in
  (* The interpreter faults after printing 1: && is not short-circuit. *)
  (match Fsicp_interp.Interp.run_opt ~fuel:1000 prog with
  | None -> ()
  | Some _ -> Alcotest.fail "interpreter must fault on 0 && (1/0)");
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let folded = Fold.fold_program ctx fs in
  (match Fsicp_interp.Interp.run_opt ~fuel:1000 folded with
  | None -> ()
  | Some _ ->
      Alcotest.fail "fold dropped the fault in the right operand of &&");
  (* And the symbolic engine reaches the same verdict family: fold of the
     faulting program is equivalent (both sides fault), never refuted. *)
  List.iter
    (fun vc ->
      match vc.V.vc_verdict with
      | V.Refuted _ ->
          Alcotest.failf "symbolic engine refuted the fault-preserving fold"
      | _ -> ())
    (V.vcs ctx ~solution:fs ~transform:"fold" ~trans:folded)

(* ------------------------------------------------------------------ *)
(* Loop induction (DESIGN.md "Loop induction")                         *)
(* ------------------------------------------------------------------ *)

(* The VC of [proc] for a hand-built transform of [orig] into [trans]. *)
let loop_vc ?(transform = "fold") ~orig ~trans proc =
  let prog = parse orig in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  match
    List.find_opt
      (fun vc -> String.equal vc.V.vc_proc proc)
      (V.vcs ctx ~solution:fs ~transform ~trans:(parse trans))
  with
  | Some vc -> vc
  | None -> Alcotest.failf "no VC generated for %s" proc

(* Refuted, with a counterexample whose print sequences really differ. *)
let check_refuted what vc =
  match vc.V.vc_verdict with
  | V.Refuted cx ->
      Alcotest.(check bool)
        (what ^ ": counterexample prints differ") false
        (List.equal Value.equal cx.V.cx_orig_prints cx.V.cx_trans_prints)
  | v -> Alcotest.failf "%s: expected refuted, got %a" what V.pp_verdict v

(* Both loop VCs of newton.mf: fold's [tol] against the literal [1], and
   the inliner's renamed [prev__in3]/[tol__in3] against the expanded
   callee's locals. *)
let test_loop_newton_proved () =
  let prog = load "newton" in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let reports = V.verify_program ctx ~solution:fs in
  List.iter
    (fun (transform, proc) ->
      let r =
        List.find (fun r -> String.equal r.V.r_transform transform) reports
      in
      match
        List.find_opt (fun vc -> String.equal vc.V.vc_proc proc) r.V.r_vcs
      with
      | Some { V.vc_verdict = V.Proved; _ } -> ()
      | Some vc ->
          Alcotest.failf "newton %s/%s: %a" transform proc V.pp_verdict
            vc.V.vc_verdict
      | None -> Alcotest.failf "newton %s/%s: no VC" transform proc)
    [ ("fold", "refine"); ("inline", "isqrt") ]

(* [n] is 3 at entry, so the literal 4 does not match it and the loop
   unrolls. *)
let test_loop_condition_constant () =
  let orig =
    {|
      proc main() { call count(0, 3); call count(1, 3); }
      proc count(i, n) { while (i < n) { i = i + 1; print i; } }
    |}
  in
  let trans =
    {|
      proc main() { call count(0, 3); call count(1, 3); }
      proc count(i, n) { while (i < 4) { i = i + 1; print i; } }
    |}
  in
  check_refuted "loop condition constant" (loop_vc ~orig ~trans "count")

(* [bump] writes [g], which the condition reads: [g] is loop-carried
   through bump's MOD set, so the literal 0 facing [g] in the changed
   argument does not match, and the VC is never Proved. *)
let test_loop_callee_mod () =
  let orig =
    {|
      global g;
      proc main() { call run(3); call run(5); }
      proc run(n) { g = 0; while (g < n) { call bump(g + g); print g; } }
      proc bump(d) { g = g + 1 + d; }
    |}
  in
  let trans =
    {|
      global g;
      proc main() { call run(3); call run(5); }
      proc run(n) { g = 0; while (g < n) { call bump(g + 0); print g; } }
      proc bump(d) { g = g + 1 + d; }
    |}
  in
  check_refuted "callee writes the condition's global"
    (loop_vc ~orig ~trans "run")

(* [i] starts at 0 against 1: the rule does not apply, and unrolling finds
   the difference. *)
let test_loop_entry_differs () =
  let orig =
    {|
      proc main() { call f(1); call f(2); }
      proc f(n) { i = 0; while (i < n) { i = i + 1; print i; } }
    |}
  in
  let trans =
    {|
      proc main() { call f(1); call f(2); }
      proc f(n) { i = 1; while (i < n) { i = i + 1; print i; } }
    |}
  in
  check_refuted "entry values differ" (loop_vc ~orig ~trans "f")

(* Under the inline VC, [q] expands on both sides and reads [h], which the
   loop never names, so the entry check does not see that [h] differs: only
   the inductive step's obligation on the carried [g] does. *)
let test_loop_inductive_step () =
  let orig =
    {|
      global g;
      global h;
      proc main() { call p(2); call p(3); }
      proc p(n) { h = 1; i = 0; while (i < n) { call q(); i = i + 1; } h = 0; print g; }
      proc q() { g = h; }
    |}
  in
  let trans =
    {|
      global g;
      global h;
      proc main() { call p(2); call p(3); }
      proc p(n) { h = 2; i = 0; while (i < n) { call q(); i = i + 1; } h = 0; print g; }
      proc q() { g = h; }
    |}
  in
  check_refuted "value read by an expanded callee"
    (loop_vc ~transform:"inline" ~orig ~trans "p")

(* MOD/REF are empty for a procedure the call graph does not reach, so
   its VC would see a call havoc nothing: [dead] prints 1, not 0. *)
let test_unreached_not_proved () =
  let orig =
    {|
      global g;
      proc main() { g = 0; print g; }
      proc dead() { g = 0; call bump(); print g; }
      proc bump() { g = g + 1; }
    |}
  in
  let trans =
    {|
      global g;
      proc main() { g = 0; print g; }
      proc dead() { g = 0; call bump(); print 0; }
      proc bump() { g = g + 1; }
    |}
  in
  match (loop_vc ~orig ~trans "dead").V.vc_verdict with
  | V.Proved -> Alcotest.fail "an unreached procedure's VC was proved"
  | V.Refuted _ | V.Inconclusive _ -> ()

let suite =
  [
    Alcotest.test_case "term normalisation" `Quick test_term_norm;
    Alcotest.test_case "term symbol collection" `Quick test_term_syms;
    Alcotest.test_case "injected bug: dropped call refuted" `Quick
      test_injected_bug_drill;
    Alcotest.test_case "injected bug: dropped assign refuted" `Quick
      test_injected_bug_assign;
    Alcotest.test_case "fold long-chain loop fixpoint" `Quick
      test_fold_long_chain_fixpoint;
    Alcotest.test_case "pinned evaluation order" `Quick test_eval_order_pinned;
    test_proved_agrees_qcheck;
  ]
  @ List.concat_map
      (fun base ->
        [
          Alcotest.test_case (base ^ " smt2 fixture") `Quick
            (test_golden ~jobs:1 base);
          Alcotest.test_case
            (base ^ " smt2 fixture (jobs=4)")
            `Quick (test_golden ~jobs:4 base);
          Alcotest.test_case (base ^ " never refuted") `Quick
            (test_never_refuted base);
        ])
      corpus
  @ [
      Alcotest.test_case "loop induction: newton proved" `Quick
        test_loop_newton_proved;
      Alcotest.test_case "loop induction: condition constant refuted" `Quick
        test_loop_condition_constant;
      Alcotest.test_case "loop induction: callee MOD global carried" `Quick
        test_loop_callee_mod;
      Alcotest.test_case "loop induction: entry values differ" `Quick
        test_loop_entry_differs;
      Alcotest.test_case "loop induction: inductive step checked" `Quick
        test_loop_inductive_step;
      Alcotest.test_case "unreached procedure never proved" `Quick
        test_unreached_not_proved;
    ]
