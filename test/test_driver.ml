(** Tests for the pipeline driver (Figure 2) and the experiment harness. *)

open Fsicp_core
open Fsicp_workloads

let test_driver_phases () =
  let prog = Test_util.program_of_seed 17 in
  let d = Driver.run prog in
  let phases = List.map (fun t -> t.Driver.t_phase) d.Driver.timings in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %s present" expected)
        true (List.mem expected phases))
    [
      "1:ipa-collect"; "2:call-graph"; "3:aliasing"; "4:mod-ref"; "lowering";
      "5a:fi-icp"; "5b:fs-icp"; "6:use";
    ];
  Alcotest.(check int) "one SCC per proc"
    (Array.length d.Driver.ctx.Context.pcg.Fsicp_callgraph.Callgraph.nodes)
    d.Driver.fs.Solution.scc_runs

let test_driver_times_nonnegative () =
  let prog = Test_util.program_of_seed 3 in
  let d = Driver.run prog in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.Driver.t_phase ^ " time >= 0")
        true
        (t.Driver.t_seconds >= 0.0))
    d.Driver.timings;
  Alcotest.(check bool) "fi timing accessible" true (Driver.fi_seconds d >= 0.0);
  Alcotest.(check bool) "fs timing accessible" true (Driver.fs_seconds d >= 0.0)

(* Every phase allocates, so every phase must report allocation: a 0 means
   the counter only moves at minor-GC boundaries.  The largest suite
   program is the one whose phases are most likely to fit between two
   minor collections and so expose a boundary-sampled counter. *)
let test_driver_phase_allocation () =
  let largest =
    List.fold_left
      (fun (acc : Spec.benchmark) (b : Spec.benchmark) ->
        if
          b.Spec.b_profile.Generator.g_procs
          > acc.Spec.b_profile.Generator.g_procs
        then b
        else acc)
      (List.hd Spec.suite) (List.tl Spec.suite)
  in
  let d = Driver.run (Spec.program largest) in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s minor words > 0 (got %.0f)"
           largest.Spec.b_name t.Driver.t_phase t.Driver.t_minor_words)
        true
        (t.Driver.t_minor_words > 0.0))
    d.Driver.timings

(* timing_of / fi_seconds / fs_seconds on both populated and synthetic
   timing lists: lookups must hit the exact phase name, and the accessors
   must default to 0.0 rather than raise when a phase is absent. *)
let test_timing_accessors () =
  let prog = Test_util.program_of_seed 17 in
  let d = Driver.run prog in
  (match Driver.timing_of d "5b:fs-icp" with
  | None -> Alcotest.fail "timing_of misses a recorded phase"
  | Some s -> Alcotest.(check bool) "recorded time >= 0" true (s >= 0.0));
  Alcotest.(check (option (float 0.0)))
    "timing_of on an unknown phase" None
    (Driver.timing_of d "9:no-such-phase");
  Alcotest.(check bool)
    "fi_seconds reads the 5a row" true
    (Driver.timing_of d "5a:fi-icp" = Some (Driver.fi_seconds d));
  Alcotest.(check bool)
    "fs_seconds reads the 5b row" true
    (Driver.timing_of d "5b:fs-icp" = Some (Driver.fs_seconds d));
  let stripped = { d with Driver.timings = [] } in
  Alcotest.(check (float 0.0))
    "fi_seconds defaults to 0 without timings" 0.0
    (Driver.fi_seconds stripped);
  Alcotest.(check (float 0.0))
    "fs_seconds defaults to 0 without timings" 0.0
    (Driver.fs_seconds stripped);
  let renamed =
    {
      d with
      Driver.timings =
        List.filter
          (fun t -> t.Driver.t_phase <> "5a:fi-icp")
          d.Driver.timings;
    }
  in
  Alcotest.(check (float 0.0))
    "fi_seconds defaults to 0 when only 5a is missing" 0.0
    (Driver.fi_seconds renamed);
  Alcotest.(check bool)
    "fs_seconds still found when only 5a is missing" true
    (Driver.fs_seconds renamed = Driver.fs_seconds d)

let test_driver_floats_toggle () =
  let prog =
    Test_util.parse
      {|proc main() { call f(2.5); } proc f(a) { print a; }|}
  in
  let with_f = Driver.run prog in
  let without_f = Driver.run ~floats:false prog in
  Alcotest.(check int) "float constant with floats on" 1
    (List.length (Solution.constant_formals with_f.Driver.fs));
  Alcotest.(check int) "censored with floats off" 0
    (List.length (Solution.constant_formals without_f.Driver.fs))

(* Harness smoke tests: each artefact builds and has the expected shape.
   These run on the small first-release subset to keep the suite fast. *)

let test_harness_candidates_table () =
  let t, runs =
    Fsicp_harness.Harness.candidates_table ~title:"t" Spec.first_release
  in
  Alcotest.(check int) "4 benchmarks + TOTAL" 5 (List.length t.Fsicp_report.Report.rows);
  Alcotest.(check int) "4 runs" 4 (List.length runs);
  (* every data row has 8 columns *)
  List.iter
    (fun row -> Alcotest.(check int) "8 columns" 8 (List.length row))
    t.Fsicp_report.Report.rows

let test_harness_propagated_table () =
  let _, runs =
    Fsicp_harness.Harness.candidates_table ~title:"" Spec.first_release
  in
  let t = Fsicp_harness.Harness.propagated_table ~title:"t" runs in
  Alcotest.(check int) "rows" 5 (List.length t.Fsicp_report.Report.rows)

let test_harness_figure1 () =
  (* The paper's six methods plus the copy-constant and value-context
     extensions. *)
  let t = Fsicp_harness.Harness.figure1_table () in
  Alcotest.(check int) "eight methods" 8
    (List.length t.Fsicp_report.Report.rows)

let test_harness_figure2 () =
  let s = Fsicp_harness.Harness.figure2 () in
  Alcotest.(check bool) "trace mentions fs-icp" true
    (let rec contains i =
       i + 6 <= String.length s
       && (String.sub s i 6 = "fs-icp" || contains (i + 1))
     in
     contains 0)

let test_run_benchmark_consistent () =
  (* Re-running a benchmark gives identical metrics (end-to-end
     determinism). *)
  let b = List.hd Spec.first_release in
  let r1 = Fsicp_harness.Harness.run_benchmark b in
  let r2 = Fsicp_harness.Harness.run_benchmark b in
  Alcotest.(check bool) "candidates identical" true
    (r1.Fsicp_harness.Harness.r_candidates = r2.Fsicp_harness.Harness.r_candidates);
  Alcotest.(check bool) "propagated identical" true
    (r1.Fsicp_harness.Harness.r_propagated = r2.Fsicp_harness.Harness.r_propagated)

let suite =
  [
    Alcotest.test_case "driver phases" `Quick test_driver_phases;
    Alcotest.test_case "driver timings" `Quick test_driver_times_nonnegative;
    Alcotest.test_case "driver phase allocation counted" `Quick
      test_driver_phase_allocation;
    Alcotest.test_case "timing accessors" `Quick test_timing_accessors;
    Alcotest.test_case "driver floats toggle" `Quick test_driver_floats_toggle;
    Alcotest.test_case "harness: candidates table" `Slow
      test_harness_candidates_table;
    Alcotest.test_case "harness: propagated table" `Slow
      test_harness_propagated_table;
    Alcotest.test_case "harness: figure 1" `Quick test_harness_figure1;
    Alcotest.test_case "harness: figure 2" `Quick test_harness_figure2;
    Alcotest.test_case "harness: deterministic" `Quick
      test_run_benchmark_consistent;
  ]
