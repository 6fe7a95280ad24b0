(** Integration tests over the textual corpus in [testdata/]: every program
    must parse, check, run, analyse soundly under every method, and survive
    the whole transformation pipeline with its behaviour intact. *)

open Fsicp_lang
open Fsicp_core
module I = Fsicp_interp.Interp
module L = Fsicp_scc.Lattice

let corpus_dir = Filename.concat Test_util.source_root "testdata"

let load name =
  let path = Filename.concat corpus_dir name in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let prog = Parser.program_of_string src in
  Sema.check_exn prog;
  prog

let corpus =
  [ "newton.mf"; "bank.mf"; "modes.mf"; "recursive.mf"; "aliasing.mf" ]

let all_methods ctx =
  [
    ("fi", Fi_icp.solve ctx);
    ("fs", Fs_icp.solve ctx);
    ("reference", Reference.solve ctx);
    ("literal", Jump_functions.solve ctx Jump_functions.Literal);
    ("intra", Jump_functions.solve ctx Jump_functions.Intra);
    ("pass", Jump_functions.solve ctx Jump_functions.Pass_through);
    ("poly", Jump_functions.solve ctx Jump_functions.Polynomial);
  ]

let test_runs name () =
  let prog = load name in
  match I.run_opt ~fuel:2_000_000 prog with
  | Some r ->
      Alcotest.(check bool) "produces output" true (r.I.prints <> [])
  | None -> Alcotest.failf "%s failed to run" name

let test_sound name () =
  let prog = load name in
  let ctx = Context.create prog in
  List.iter
    (fun (mname, sol) ->
      match Test_util.check_solution_sound prog sol with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s/%s: %s" name mname msg)
    (all_methods ctx)

let test_pipeline_preserves name () =
  let prog = load name in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let out p = Option.map (fun r -> r.I.prints) (I.run_opt ~fuel:2_000_000 p) in
  let reference = out prog in
  let check what p =
    Sema.check_exn p;
    if out p <> reference then Alcotest.failf "%s: %s changed behaviour" name what
  in
  check "entry-constant insertion" (Transform.insert_entry_constants ctx fs);
  check "folding" (Fold.fold_program ctx fs);
  check "cloning" (fst (Clone.clone_by_constants ctx ~fs ()));
  check "inlining" (fst (Inline.inline_program ctx ()))

(* Corpus-specific expectations. *)

let test_modes_specifics () =
  let prog = load "modes.mf" in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let v p i = Solution.formal_value fs p i in
  Alcotest.check Test_util.lattice_testable "mode = 0" (L.Const (Value.Int 0))
    (v "run" 0);
  Alcotest.check Test_util.lattice_testable "chunk = 8 (pruned)"
    (L.Const (Value.Int 8)) (v "work" 1);
  Alcotest.check Test_util.lattice_testable "depth = 3 (pruned)"
    (L.Const (Value.Int 3)) (v "work" 2);
  (* the polynomial baseline cannot see through the mode branch *)
  let poly = Jump_functions.solve ctx Jump_functions.Polynomial in
  Alcotest.check Test_util.lattice_testable "poly misses chunk" L.Bot
    (Solution.formal_value poly "work" 1)

let test_bank_specifics () =
  let prog = load "bank.mf" in
  let ctx = Context.create prog in
  let fi = Fi_icp.solve ctx in
  (* block-data constants are already FI-visible *)
  Alcotest.check Test_util.lattice_testable "rate constant for FI"
    (L.Const (Value.Real 0.5))
    (Solution.global_value fi "apply_interest" "rate");
  Alcotest.check Test_util.lattice_testable "fee constant for FI"
    (L.Const (Value.Int 2))
    (Solution.global_value fi "deposit" "fee");
  (* but balance is modified through references: never constant *)
  Alcotest.check Test_util.lattice_testable "balance not constant" L.Bot
    (Solution.global_value fi "deposit" "balance");
  (* floats off: rate disappears, fee stays *)
  let ctx' = Context.create ~floats:false prog in
  let fi' = Fi_icp.solve ctx' in
  Alcotest.check Test_util.lattice_testable "rate censored" L.Bot
    (Solution.global_value fi' "apply_interest" "rate")

let test_recursive_specifics () =
  let prog = load "recursive.mf" in
  let ctx = Context.create prog in
  Alcotest.(check bool) "PCG has a cycle" true
    (Fsicp_callgraph.Callgraph.has_cycles ctx.Context.pcg);
  let fs = Fs_icp.solve ctx in
  Alcotest.(check int) "one SCC per proc under recursion" 3
    fs.Solution.scc_runs;
  (* the unit parameter is literal 1 on every edge: even FI keeps it *)
  let fi = Fi_icp.solve ctx in
  Alcotest.check Test_util.lattice_testable "unit constant in even"
    (L.Const (Value.Int 1))
    (Solution.formal_value fi "even" 1);
  Alcotest.check Test_util.lattice_testable "unit constant in odd"
    (L.Const (Value.Int 1))
    (Solution.formal_value fi "odd" 1)

let test_aliasing_specifics () =
  let prog = load "aliasing.mf" in
  let r = I.run prog in
  Alcotest.(check (list string)) "interpreter ground truth"
    [ "11"; "11"; "10"; "10" ]
    (List.map Value.to_string r.I.prints);
  (* the analysis must see the alias pair *)
  let ctx = Context.create prog in
  Alcotest.(check bool) "twice's formals alias" true
    (Fsicp_ipa.Alias.formals_may_alias ctx.Context.aliases "twice" 0 1);
  Alcotest.(check bool) "through's formal aliases the global" true
    (Fsicp_ipa.Alias.formal_global_may_alias ctx.Context.aliases "through" 0
       "shared")

let suite =
  List.concat_map
    (fun name ->
      [
        Alcotest.test_case (name ^ " runs") `Quick (test_runs name);
        Alcotest.test_case (name ^ " all methods sound") `Quick
          (test_sound name);
        Alcotest.test_case (name ^ " transformations preserve") `Quick
          (test_pipeline_preserves name);
      ])
    corpus
  @ [
      Alcotest.test_case "modes: figure-1 pattern at scale" `Quick
        test_modes_specifics;
      Alcotest.test_case "bank: block-data constants" `Quick
        test_bank_specifics;
      Alcotest.test_case "recursive: back-edge handling" `Quick
        test_recursive_specifics;
      Alcotest.test_case "aliasing: ground truth + alias pairs" `Quick
        test_aliasing_specifics;
    ]
