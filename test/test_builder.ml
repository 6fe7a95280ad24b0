(** Tests for the programmatic builder DSL and a few cross-cutting
    monotonicity properties that live naturally at program level. *)

open Fsicp_lang
open Fsicp_core

let test_builder_program () =
  let prog =
    Builder.(
      program_exn
        ~blockdata:[ ("g", Value.Int 3) ]
        [
          proc "main" [] [ call "sub1" [ i 0 ] ];
          proc "sub1" [ "f1" ]
            [
              "x" <-- i 1;
              if_ (v "f1" <> i 0) [ "y" <-- i 1 ] [ "y" <-- i 0 ];
              call "sub2" [ v "y"; i 4; v "f1"; v "x" ];
            ];
          proc "sub2" [ "f2"; "f3"; "f4"; "f5" ]
            [ "t" <-- v "f2" + v "f3" + v "f4" + v "f5"; print (v "t") ];
        ])
  in
  (* It is (a superset of) the Figure 1 program: same FS result. *)
  let fs = Fs_icp.solve (Context.create prog) in
  Alcotest.(check int) "five constant formals" 5
    (List.length (Solution.constant_formals fs));
  let r = Fsicp_interp.Interp.run prog in
  Alcotest.(check (list string)) "prints 5" [ "5" ]
    (List.map Value.to_string r.Fsicp_interp.Interp.prints)

let test_builder_operators () =
  let e = Builder.(v "a" * (i 2 + i 3) <= neg (v "b")) in
  Alcotest.(check string) "renders with precedence" "a * (2 + 3) <= -b"
    (Pretty.expr_to_string e)

let test_builder_rejects_illformed () =
  match
    Builder.program_exn [ Builder.proc "main" [] [ Builder.call "nope" [] ] ]
  with
  | exception Sema.Illformed _ -> ()
  | _ -> Alcotest.fail "expected Illformed"

let test_builder_while_loop () =
  let prog =
    Builder.(
      program_exn
        [
          proc "main" []
            [
              "i" <-- i 0;
              "s" <-- i 0;
              while_ (v "i" < i 4)
                [ "s" <-- v "s" + v "i"; "i" <-- v "i" + i 1 ];
              print (v "s");
            ];
        ])
  in
  let r = Fsicp_interp.Interp.run prog in
  Alcotest.(check (list string)) "sums" [ "6" ]
    (List.map Value.to_string r.Fsicp_interp.Interp.prints)

(* Censoring monotonicity: turning float propagation off can only remove
   constants, never add or change them. *)
let prop_float_censoring_monotone =
  Test_util.qcheck ~count:40 ~name:"floats off ⊑ floats on"
    Test_util.seed_gen
    (fun seed ->
      let profile =
        {
          (Fsicp_workloads.Generator.small_profile seed) with
          Fsicp_workloads.Generator.g_float_frac = 0.4;
          g_float_local_frac = 0.4;
          g_float_bd_frac = 0.6;
        }
      in
      let prog = Fsicp_workloads.Generator.generate profile in
      let fs_on = Fs_icp.solve (Context.create ~floats:true prog) in
      let fs_off = Fs_icp.solve (Context.create ~floats:false prog) in
      let procs =
        Test_util.reachable_procs (Context.create prog)
      in
      Test_util.solution_le fs_off fs_on ~procs
      &&
      (* every constant the censored run keeps is an integer *)
      List.for_all
        (fun (_, _, v) -> not (Value.is_real v))
        (Solution.constant_formals fs_off))

(* Entry-constant insertion makes the constants INTRAPROCEDURALLY visible:
   after the transform, a purely intraprocedural analysis (no
   interprocedural solution at all) folds the uses the ICP discovered.

   Note this deliberately does NOT claim that a full re-analysis of the
   transformed program is at least as precise: writing a constant into a
   by-reference formal enlarges the callee's MOD set, which can kill
   constants in CALLERS — which is exactly why the paper performs the
   substitution during the backward walk, after all interprocedural
   analysis has been taken. *)
let empty_solution (ctx : Context.t) name : Solution.t =
  let db = ctx.Context.pcg.Fsicp_callgraph.Callgraph.db in
  Solution.make ~method_name:name
    ~db
    ~entries:(Fsicp_prog.Prog.tbl db Solution.empty_entry)
    ~call_records:[] ~scc_runs:0

let prop_insertion_makes_constants_local =
  Test_util.qcheck ~count:30
    ~name:"insertion makes ICP constants intraprocedurally visible"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let prog' = Transform.insert_entry_constants ctx fs in
      let ctx' = Context.create prog' in
      (* Per procedure: with NO interprocedural information, the transformed
         procedure folds at least as many uses as its original folded —
         restricted to the procedure itself, where the prologue can only
         add knowledge.  (A global count would not be monotone: writing a
         constant into a by-reference formal enlarges the callee's MOD set
         and can kill constants in CALLERS.) *)
      let per_before, _ =
        Transform.substitutions ctx (empty_solution ctx "none")
      in
      let per_after, _ =
        Transform.substitutions ctx' (empty_solution ctx' "none")
      in
      List.for_all
        (fun proc ->
          (* procedures whose MOD view of callees changed can lose uses;
             only check procedures that received a prologue and make no
             calls (leaf procedures) — there the claim is exact *)
          let p = Fsicp_lang.Ast.find_proc_exn prog proc in
          if Fsicp_lang.Ast.call_sites p <> [] then true
          else
            match (List.assoc_opt proc per_before, List.assoc_opt proc per_after) with
            | Some b, Some a -> a >= b
            | _ -> true)
        (Test_util.reachable_procs ctx))

let suite =
  [
    Alcotest.test_case "builder assembles Figure 1" `Quick test_builder_program;
    Alcotest.test_case "builder operators" `Quick test_builder_operators;
    Alcotest.test_case "builder rejects ill-formed" `Quick
      test_builder_rejects_illformed;
    Alcotest.test_case "builder while loop" `Quick test_builder_while_loop;
    prop_float_censoring_monotone;
    prop_insertion_makes_constants_local;
  ]
