(** Edge-case and stress tests across the whole pipeline: degenerate
    programs, deep nesting, wide expressions, long call chains. *)

open Fsicp_lang
open Fsicp_core
module I = Fsicp_interp.Interp

let analyse_everything prog =
  let ctx = Context.create prog in
  let fi = Fi_icp.solve ctx in
  let fs = Fs_icp.solve ~fi ctx in
  ignore (Reference.solve ctx);
  ignore (Jump_functions.solve ctx Jump_functions.Polynomial);
  ignore (Metrics.candidates ctx ~fi ~fs ~name:"edge");
  ignore (Metrics.propagated ctx ~fi ~fs ~name:"edge");
  ignore (Transform.substitutions ctx fs);
  ignore (Fold.fold_program ctx fs);
  (ctx, fs)

let test_empty_main () =
  let prog = Test_util.parse "proc main() { }" in
  let _, fs = analyse_everything prog in
  Alcotest.(check int) "one proc, one SCC" 1 fs.Solution.scc_runs

let test_main_only_globals () =
  let prog = Test_util.parse "blockdata { g = 1; } proc main() { print g; }" in
  let _, fs = analyse_everything prog in
  Alcotest.check Test_util.lattice_testable "g at main entry"
    (Fsicp_scc.Lattice.Const (Value.Int 1))
    (Solution.global_value fs "main" "g")

let test_proc_with_many_formals () =
  let n = 40 in
  let formals = List.init n (fun i -> Printf.sprintf "f%d" i) in
  let args = List.init n (fun i -> Ast.int i) in
  let body =
    [
      Ast.assign "s"
        (List.fold_left
           (fun acc f -> Ast.binary Ops.Add acc (Ast.var f))
           (Ast.int 0) formals);
      Ast.print (Ast.var "s");
    ]
  in
  let prog =
    Fsicp_workloads.(ignore Generator.default_profile);
    {
      Ast.globals = [];
      blockdata = [];
      procs =
        [
          { Ast.pname = "main"; formals = []; body = [ Ast.call "f" args ];
            ppos = Ast.no_pos };
          { Ast.pname = "f"; formals; body; ppos = Ast.no_pos };
        ];
      main = "main";
    }
  in
  Sema.check_exn prog;
  let _, fs = analyse_everything prog in
  Alcotest.(check int) "all 40 formals constant" n
    (List.length (Solution.constant_formals fs));
  (* and the interpreter agrees: sum 0..39 = 780 *)
  Alcotest.(check (list string)) "output" [ "780" ]
    (List.map Value.to_string (I.run prog).I.prints)

let test_deep_nesting () =
  let rec nest k inner =
    if k = 0 then inner
    else
      [ Ast.if_ (Ast.binary Ops.Ge (Ast.var "d") (Ast.int k)) (nest (k - 1) inner) [] ]
  in
  let prog =
    {
      Ast.globals = [];
      blockdata = [];
      procs =
        [
          {
            Ast.pname = "main";
            formals = [];
            body =
              Ast.assign "d" (Ast.int 100)
              :: nest 100 [ Ast.print (Ast.int 42) ];
            ppos = Ast.no_pos;
          };
        ];
      main = "main";
    }
  in
  Sema.check_exn prog;
  let _, fs = analyse_everything prog in
  ignore fs;
  Alcotest.(check (list string)) "reaches the innermost print" [ "42" ]
    (List.map Value.to_string (I.run prog).I.prints)

let test_long_call_chain () =
  let n = 60 in
  let procs =
    List.init n (fun i ->
        let name = if i = 0 then "main" else Printf.sprintf "p%d" i in
        let formals = if i = 0 then [] else [ "x" ] in
        let body =
          if i = n - 1 then [ Ast.print (Ast.var "x") ]
          else
            [
              Ast.call
                (Printf.sprintf "p%d" (i + 1))
                [ (if i = 0 then Ast.int 7 else Ast.var "x") ];
            ]
        in
        { Ast.pname = name; formals; body; ppos = Ast.no_pos })
  in
  let prog = { Ast.globals = []; blockdata = []; procs; main = "main" } in
  Sema.check_exn prog;
  let _, fs = analyse_everything prog in
  (* the constant 7 survives the whole 59-deep pass-through chain *)
  Alcotest.check Test_util.lattice_testable "deep chain"
    (Fsicp_scc.Lattice.Const (Value.Int 7))
    (Solution.formal_value fs (Printf.sprintf "p%d" (n - 1)) 0);
  (* and FI finds it too (pure pass-through) *)
  let fi = Fi_icp.solve (Context.create prog) in
  Alcotest.check Test_util.lattice_testable "FI matches on pure pass-through"
    (Fsicp_scc.Lattice.Const (Value.Int 7))
    (Solution.formal_value fi (Printf.sprintf "p%d" (n - 1)) 0)

let test_self_loop_only () =
  (* A procedure whose only caller is itself (plus main). *)
  let prog =
    Test_util.parse
      {|proc main() { call f(1); }
        proc f(a) { if (u) { call f(1); } print a; }|}
  in
  let _, fs = analyse_everything prog in
  Alcotest.check Test_util.lattice_testable "self-loop constant"
    (Fsicp_scc.Lattice.Const (Value.Int 1))
    (Solution.formal_value fs "f" 0)

let test_dead_proc_in_pcg () =
  (* Statically reachable but dynamically dead procedures must not
     contaminate anything. *)
  let prog =
    Test_util.parse
      {|proc main() { if (0) { call dead(99); } call live(1); }
        proc dead(d) { call live(2); }
        proc live(a) { print a; }|}
  in
  let _, fs = analyse_everything prog in
  (* dead's call to live is in a procedure that is never entered, but
     whose own SCC still treats its body as executable — the meet must
     stay sound (it may lower to ⊥ but never claim the wrong constant). *)
  (match Solution.formal_value fs "live" 0 with
  | Fsicp_scc.Lattice.Const (Value.Int 1) | Fsicp_scc.Lattice.Bot -> ()
  | v ->
      Alcotest.failf "unsound value for live.a: %s"
        (Fsicp_scc.Lattice.to_string v));
  match Test_util.check_solution_sound prog fs with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_division_by_zero_in_analysis () =
  (* Constant folding must map the error to ⊥, never crash. *)
  let prog =
    Test_util.parse
      {|proc main() { x = 0; y = 1 / x; call f(y); }
        proc f(a) { print a; }|}
  in
  let _, fs = analyse_everything prog in
  Alcotest.check Test_util.lattice_testable "1/0 is bot interprocedurally"
    Fsicp_scc.Lattice.Bot
    (Solution.formal_value fs "f" 0)

let test_wide_expression () =
  let wide =
    List.fold_left
      (fun acc i -> Ast.binary Ops.Add acc (Ast.int i))
      (Ast.int 0)
      (List.init 300 (fun i -> i))
  in
  let prog =
    {
      Ast.globals = [];
      blockdata = [];
      procs =
        [ { Ast.pname = "main"; formals = []; body = [ Ast.print wide ];
            ppos = Ast.no_pos } ];
      main = "main";
    }
  in
  Sema.check_exn prog;
  let ctx = Context.create prog in
  let res = Fsicp_scc.Scc.run (Context.ssa ctx "main") in
  (* 0 + 0 + 1 + ... + 299 = 44850, fully folded *)
  let ok = ref false in
  Array.iter
    (fun (b : Fsicp_ssa.Ssa.block) ->
      Array.iter
        (function
          | Fsicp_ssa.Ssa.Print o -> (
              match Fsicp_scc.Scc.operand_value res o with
              | Fsicp_scc.Lattice.Const (Value.Int 44850) -> ok := true
              | _ -> ())
          | _ -> ())
        b.Fsicp_ssa.Ssa.instrs)
    res.Fsicp_scc.Scc.proc.Fsicp_ssa.Ssa.blocks;
  Alcotest.(check bool) "300-term expression folds" true !ok

let suite =
  [
    Alcotest.test_case "empty main" `Quick test_empty_main;
    Alcotest.test_case "globals-only program" `Quick test_main_only_globals;
    Alcotest.test_case "40-formal procedure" `Quick test_proc_with_many_formals;
    Alcotest.test_case "100-deep nesting" `Quick test_deep_nesting;
    Alcotest.test_case "60-deep call chain" `Quick test_long_call_chain;
    Alcotest.test_case "self-recursive only" `Quick test_self_loop_only;
    Alcotest.test_case "dynamically dead procedures" `Quick
      test_dead_proc_in_pcg;
    Alcotest.test_case "division by zero interprocedural" `Quick
      test_division_by_zero_in_analysis;
    Alcotest.test_case "300-term expression" `Quick test_wide_expression;
  ]
