(** Tests for the transformation phase: entry-constant materialisation,
    substitution counting, AST-level folding, return constants and procedure
    cloning — everything downstream of the ICP solutions. *)

open Fsicp_lang
open Fsicp_core
open Fsicp_scc
module I = Fsicp_interp.Interp
module L = Lattice

let lat = Test_util.lattice_testable

let setup src =
  let prog = Test_util.parse src in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  (prog, ctx, fs)

(* -- insert_entry_constants ------------------------------------------- *)

let test_entry_assignments_created () =
  let _, ctx, fs =
    setup {|proc main() { x = 3; call f(x); } proc f(a) { print a; }|}
  in
  let prog' = Transform.insert_entry_constants ctx fs in
  let f = Ast.find_proc_exn prog' "f" in
  match (List.hd f.Ast.body).Ast.sdesc with
  | Ast.Assign ("a", Ast.Const (Value.Int 3)) -> ()
  | _ -> Alcotest.fail "expected 'a = 3;' at entry of f"

let test_entry_assignment_only_if_referenced () =
  (* b is constant but never read in f: no assignment is created (the
     paper: "only for those variables that are referenced"). *)
  let _, ctx, fs =
    setup {|proc main() { call f(1, 2); } proc f(a, b) { print a; }|}
  in
  let prog' = Transform.insert_entry_constants ctx fs in
  let f = Ast.find_proc_exn prog' "f" in
  let assigns_to_b =
    List.filter
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with Ast.Assign ("b", _) -> true | _ -> false)
      f.Ast.body
  in
  Alcotest.(check int) "no assignment for unreferenced b" 0
    (List.length assigns_to_b)

let test_global_entry_assignment () =
  let _, ctx, fs =
    setup
      {|global g;
        proc main() { g = 7; call f(); }
        proc f() { print g; }|}
  in
  let prog' = Transform.insert_entry_constants ctx fs in
  let f = Ast.find_proc_exn prog' "f" in
  match (List.hd f.Ast.body).Ast.sdesc with
  | Ast.Assign ("g", Ast.Const (Value.Int 7)) -> ()
  | _ -> Alcotest.fail "expected 'g = 7;' at entry of f"

let prop_insertion_preserves_semantics =
  Test_util.qcheck ~count:50
    ~name:"entry-constant insertion preserves behaviour"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let prog' = Transform.insert_entry_constants ctx fs in
      Sema.check_exn prog';
      match (I.run_opt prog, I.run_opt prog') with
      | Some a, Some b -> List.equal Value.equal a.I.prints b.I.prints
      | None, None -> true
      | _ -> false)

(* -- substitutions ------------------------------------------------------ *)

let test_substitution_totals () =
  let _, ctx, fs =
    setup
      {|proc main() { call f(2); }
        proc f(a) { x = a + a; print x; }|}
  in
  let per_proc, total = Transform.substitutions ctx fs in
  (* in f: two uses of a (constant) and one of x (constant) = 3 *)
  Alcotest.(check int) "f substitutions" 3 (List.assoc "f" per_proc);
  Alcotest.(check int) "total" 3 total

let test_substitutions_method_dependent () =
  let _, ctx, fs =
    setup
      {|proc main() { x = 2; call f(x); }
        proc f(a) { print a; }|}
  in
  let fi = Fi_icp.solve ctx in
  let _, n_fi = Transform.substitutions ctx fi in
  let _, n_fs = Transform.substitutions ctx fs in
  (* FS knows a = 2 (1 use in f) plus x's uses in main (x at the call). *)
  Alcotest.(check bool) "FS >= FI" true (n_fs >= n_fi);
  Alcotest.(check bool) "FS strictly better here" true (n_fs > n_fi)

(* -- Fold ---------------------------------------------------------------- *)

let test_fold_replaces_uses () =
  let _, ctx, fs =
    setup {|proc main() { x = 3; y = x + 4; print y; }|}
  in
  let prog' = Fold.fold_program ctx fs in
  let main = Ast.find_proc_exn prog' "main" in
  match (List.nth main.Ast.body 2).Ast.sdesc with
  | Ast.Print (Ast.Const (Value.Int 7)) -> ()
  | s ->
      Alcotest.failf "expected print 7, got %s"
        (Pretty.stmt_to_string { Ast.sdesc = s; spos = Ast.no_pos })

let test_fold_prunes_dead_branch () =
  let _, ctx, fs =
    setup
      {|proc main() { c = 1; if (c) { print 10; } else { print 20; } }|}
  in
  let prog' = Fold.fold_program ctx fs in
  let main = Ast.find_proc_exn prog' "main" in
  let has_if =
    List.exists
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with Ast.If _ -> true | _ -> false)
      main.Ast.body
  in
  Alcotest.(check bool) "branch resolved away" false has_if

let test_fold_drops_dead_loop () =
  let _, ctx, fs = setup {|proc main() { while (0) { print 1; } print 2; }|} in
  let prog' = Fold.fold_program ctx fs in
  let main = Ast.find_proc_exn prog' "main" in
  let has_while =
    List.exists
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with Ast.While _ -> true | _ -> false)
      main.Ast.body
  in
  Alcotest.(check bool) "dead loop removed" false has_while

let test_fold_keeps_byref_args () =
  (* x is constant at the call, but f modifies it through the reference:
     the argument must stay a variable. *)
  let _, ctx, fs =
    setup
      {|proc main() { x = 1; call f(x); print x; }
        proc f(a) { a = 2; }|}
  in
  let prog' = Fold.fold_program ctx fs in
  let main = Ast.find_proc_exn prog' "main" in
  let ok =
    List.exists
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.Call ("f", [ Ast.Var "x" ]) -> true
        | _ -> false)
      main.Ast.body
  in
  Alcotest.(check bool) "by-ref arg not literalised" true ok

let test_fold_call_kills_aliased_formal () =
  (* f's formal a may alias global g (main passes g), and h writes g: the
     call to h must kill a as well as g, so [print a] prints 7, not 5. *)
  let prog, ctx, fs =
    setup
      {|global g;
        proc main() { g = 0; call f(g); print g; }
        proc f(a) { a = 5; call h(); print a; }
        proc h() { g = 7; }|}
  in
  let prog' = Fold.fold_program ctx fs in
  let f = Ast.find_proc_exn prog' "f" in
  let prints_a =
    List.exists
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with Ast.Print (Ast.Var "a") -> true | _ -> false)
      f.Ast.body
  in
  Alcotest.(check bool) "print a not folded" true prints_a;
  let prints p = List.map (Fmt.str "%a" Value.pp) (I.run p).I.prints in
  Alcotest.(check (list string)) "same output" (prints prog) (prints prog')

let prop_fold_preserves_semantics =
  Test_util.qcheck ~count:60 ~name:"folding preserves behaviour"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let prog' = Fold.fold_program ctx fs in
      Sema.check_exn prog';
      match (I.run_opt prog, I.run_opt prog') with
      | Some a, Some b -> List.equal Value.equal a.I.prints b.I.prints
      | None, _ -> true (* original diverges: folded may of course differ *)
      | Some _, None -> false)

(* -- Return constants ----------------------------------------------------- *)

let test_return_constants_found () =
  let _, ctx, fs =
    setup
      {|global g;
        proc main() { x = 0; call init(x); print x; }
        proc init(p) { p = 42; g = 7; }|}
  in
  let rc = Return_consts.compute ctx ~fs in
  match Return_consts.summary_of rc "init" with
  | Some s ->
      Alcotest.check lat "p returns 42" (L.Const (Value.Int 42))
        s.Return_consts.rs_formals.(0);
      Alcotest.check lat "g returns 7" (L.Const (Value.Int 7))
        (Option.value
           (List.assoc_opt
              (Fsicp_prog.Prog.Var.intern "g")
              s.Return_consts.rs_globals)
           ~default:L.Top)
  | None -> Alcotest.fail "no summary for init"

let test_return_constants_improve_caller () =
  let _, ctx, fs =
    setup
      {|proc main() { x = 0; call init(x); call use(x); }
        proc init(p) { p = 42; }
        proc use(a) { print a; }|}
  in
  (* Base FS: x unknown after the call. *)
  Alcotest.check lat "without returns" L.Bot (Solution.formal_value fs "use" 0);
  let rc = Return_consts.compute ctx ~fs in
  let fs2 =
    Fs_icp.solve
      ~call_def_value:(Return_consts.as_oracle rc ~censor:(Context.censor_w ctx))
      ctx
  in
  Alcotest.check lat "with returns" (L.Const (Value.Int 42))
    (Solution.formal_value fs2 "use" 0)

let test_return_constants_conditional_bot () =
  let _, ctx, fs =
    setup
      {|proc main() { x = 0; call f(x); call use(x); }
        proc f(p) { if (u) { p = 1; } else { p = 2; } }
        proc use(a) { print a; }|}
  in
  let rc = Return_consts.compute ctx ~fs in
  match Return_consts.summary_of rc "f" with
  | Some s ->
      Alcotest.check lat "different exits meet to bot" L.Bot
        s.Return_consts.rs_formals.(0)
  | None -> Alcotest.fail "no summary"

let prop_returns_sound =
  Test_util.qcheck ~count:40 ~name:"FS + return constants sound"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let rc = Return_consts.compute ctx ~fs in
      let fs2 =
        Fs_icp.solve
          ~call_def_value:
            (Return_consts.as_oracle rc ~censor:(Context.censor_w ctx))
          ctx
      in
      match Test_util.check_solution_sound prog fs2 with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* -- Cloning -------------------------------------------------------------- *)

let test_cloning_splits_collisions () =
  let prog, ctx, fs =
    setup
      {|proc main() { call f(1); call f(2); }
        proc f(a) { print a; }|}
  in
  (* the meet over both sites kills a *)
  Alcotest.check lat "collision before cloning" L.Bot
    (Solution.formal_value fs "f" 0);
  let prog', n = Clone.clone_by_constants ctx ~fs () in
  Alcotest.(check int) "one clone created" 1 n;
  Sema.check_exn prog';
  (* behaviour preserved *)
  let a = I.run prog and b = I.run prog' in
  Alcotest.(check (list Test_util.value_testable))
    "same output" a.I.prints b.I.prints;
  (* and the re-analysis finds both constants *)
  let ctx' = Context.create prog' in
  let fs' = Fs_icp.solve ctx' in
  let consts = Solution.constant_formals fs' in
  Alcotest.(check int) "two constant formals after cloning" 2
    (List.length consts)

let prop_cloning_preserves_semantics =
  Test_util.qcheck ~count:40 ~name:"cloning preserves behaviour"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let prog', _ = Clone.clone_by_constants ctx ~fs () in
      Sema.check_exn prog';
      match (I.run_opt prog, I.run_opt prog') with
      | Some a, Some b -> List.equal Value.equal a.I.prints b.I.prints
      | None, None -> true
      | _ -> false)

let prop_cloning_never_hurts =
  Test_util.qcheck ~count:30
    ~name:"cloning never decreases constant formals (acyclic)"
    Test_util.seed_gen
    (fun seed ->
      let profile =
        {
          (Fsicp_workloads.Generator.small_profile seed) with
          Fsicp_workloads.Generator.g_back_edge_prob = 0.0;
        }
      in
      let prog = Fsicp_workloads.Generator.generate profile in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let prog', _ = Clone.clone_by_constants ctx ~fs () in
      let fs' = Fs_icp.solve (Context.create prog') in
      List.length (Solution.constant_formals fs')
      >= List.length (Solution.constant_formals fs))

let suite =
  [
    Alcotest.test_case "entry assignments created" `Quick
      test_entry_assignments_created;
    Alcotest.test_case "only referenced variables" `Quick
      test_entry_assignment_only_if_referenced;
    Alcotest.test_case "global entry assignment" `Quick
      test_global_entry_assignment;
    prop_insertion_preserves_semantics;
    Alcotest.test_case "substitution totals" `Quick test_substitution_totals;
    Alcotest.test_case "substitutions method-dependent" `Quick
      test_substitutions_method_dependent;
    Alcotest.test_case "fold replaces uses" `Quick test_fold_replaces_uses;
    Alcotest.test_case "fold prunes dead branch" `Quick
      test_fold_prunes_dead_branch;
    Alcotest.test_case "fold drops dead loop" `Quick test_fold_drops_dead_loop;
    Alcotest.test_case "fold keeps by-ref args" `Quick test_fold_keeps_byref_args;
    Alcotest.test_case "fold: call kills an aliased formal" `Quick
      test_fold_call_kills_aliased_formal;
    prop_fold_preserves_semantics;
    Alcotest.test_case "return constants found" `Quick
      test_return_constants_found;
    Alcotest.test_case "return constants improve caller" `Quick
      test_return_constants_improve_caller;
    Alcotest.test_case "conditional returns meet to bot" `Quick
      test_return_constants_conditional_bot;
    prop_returns_sound;
    Alcotest.test_case "cloning splits collisions" `Quick
      test_cloning_splits_collisions;
    prop_cloning_preserves_semantics;
    prop_cloning_never_hurts;
  ]
