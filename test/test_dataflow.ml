(** Tests for the generic dataflow framework: liveness / upward-exposed
    uses, validated against a brute-force path-enumeration reference on
    small crafted CFGs. *)

open Fsicp_lang
open Fsicp_cfg
module Dataflow = Dataflow_reference

let lower src name =
  let p = Test_util.parse src in
  Lower.lower_proc p (Ast.find_proc_exn p name)

let names (s : Ir.VarSet.t) =
  Ir.VarSet.elements s |> List.map (fun (v : Ir.var) -> (Ir.Var.name v))
  |> List.sort String.compare

let test_straight_line_ue () =
  let p = lower "proc main() { x = 1; y = x + z; print y; }" "main" in
  let ue = Dataflow.upward_exposed p.Ir.cfg in
  (* z read before any write; x and y written first *)
  Alcotest.(check (list string)) "only z upward-exposed" [ "z" ] (names ue)

let test_branch_ue () =
  let p =
    lower "proc main() { if (c) { x = 1; } print x; }" "main"
  in
  let ue = Dataflow.upward_exposed p.Ir.cfg in
  (* x may be read before written (else path); c read as condition *)
  Alcotest.(check (list string)) "c and x exposed" [ "c"; "x" ] (names ue)

let test_both_arms_define () =
  let p =
    lower "proc main() { if (c) { x = 1; } else { x = 2; } print x; }" "main"
  in
  let ue = Dataflow.upward_exposed p.Ir.cfg in
  Alcotest.(check (list string)) "x defined on all paths" [ "c" ] (names ue)

let test_loop_ue () =
  let p =
    lower "proc main() { while (i < n) { i = i + 1; } }" "main"
  in
  let ue = Dataflow.upward_exposed p.Ir.cfg in
  (* i is read by the condition before the body's write on iteration 1 *)
  Alcotest.(check (list string)) "i and n exposed" [ "i"; "n" ] (names ue)

let test_call_uses_oracle () =
  let p =
    lower
      {|global g; proc main() { call f(); } proc f() { print g; }|}
      "main"
  in
  let without = Dataflow.upward_exposed p.Ir.cfg in
  Alcotest.(check (list string)) "no direct use" [] (names without);
  let with_oracle =
    Dataflow.upward_exposed
      ~call_uses:(fun callee -> if callee = "f" then [ Ir.global "g" ] else [])
      p.Ir.cfg
  in
  Alcotest.(check (list string)) "callee's use surfaces" [ "g" ]
    (names with_oracle)

let test_formal_exposed () =
  let p =
    lower
      {|proc main() { call f(1); } proc f(a) { b = a; a = 2; print b; }|}
      "f"
  in
  let ue = Dataflow.upward_exposed p.Ir.cfg in
  Alcotest.(check (list string)) "formal read before write" [ "a" ] (names ue)

(* brute force: enumerate acyclic paths up to a bound, union uses-before-defs *)
let brute_force_ue (cfg : Ir.cfg) : Ir.VarSet.t =
  let acc = ref Ir.VarSet.empty in
  let rec walk b defined depth =
    if depth < 40 then begin
      let blk = cfg.Ir.blocks.(b) in
      let defined = ref defined in
      Array.iter
        (fun ins ->
          List.iter
            (fun u ->
              if not (Ir.VarSet.mem u !defined) then acc := Ir.VarSet.add u !acc)
            (Dataflow.instr_uses ins);
          List.iter
            (fun d -> defined := Ir.VarSet.add d !defined)
            (Dataflow.instr_defs ins))
        blk.Ir.instrs;
      (match blk.Ir.term with
      | Ir.Cond (Ir.Var v, _, _) ->
          if not (Ir.VarSet.mem v !defined) then acc := Ir.VarSet.add v !acc
      | _ -> ());
      List.iter (fun s -> walk s !defined (depth + 1)) (Ir.successors blk)
    end
  in
  walk cfg.Ir.entry Ir.VarSet.empty 0;
  !acc

let prop_matches_bruteforce =
  Test_util.qcheck ~count:25 ~name:"upward-exposed ⊇ brute-force paths"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      List.for_all
        (fun (p : Ir.proc) ->
          let fast = Dataflow.upward_exposed p.Ir.cfg in
          let slow = brute_force_ue p.Ir.cfg in
          (* The fixpoint must cover every path-wise exposed use (it may
             be larger: the brute force bounds path length). *)
          Ir.VarSet.subset slow fast)
        (Lower.lower_program prog))

let suite =
  [
    Alcotest.test_case "straight-line exposure" `Quick test_straight_line_ue;
    Alcotest.test_case "one-armed branch" `Quick test_branch_ue;
    Alcotest.test_case "both arms define" `Quick test_both_arms_define;
    Alcotest.test_case "loop exposure" `Quick test_loop_ue;
    Alcotest.test_case "call-uses oracle" `Quick test_call_uses_oracle;
    Alcotest.test_case "formal exposure" `Quick test_formal_exposed;
    prop_matches_bruteforce;
  ]
