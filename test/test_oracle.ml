(** The differential oracle itself: it must accept every healthy method
    solution, reject deliberately corrupted ones (entry constants, exit
    summaries, hierarchy order — formals {e and} globals), and its shrinker
    must reduce failing programs to small Sema-clean reproducers.  The
    [testdata/regressions/] corpus of past fuzz counterexamples is replayed
    here on every run. *)

open Fsicp_lang
open Fsicp_core
module O = Fsicp_oracle.Oracle
module Shrink = Fsicp_oracle.Shrink
module L = Fsicp_scc.Lattice
module Prog = Fsicp_prog.Prog

let parse = Test_util.parse

(* Rebuild a solution with every entry rewritten by [f]. *)
let map_entries f (sol : Solution.t) =
  Solution.make ~method_name:sol.Solution.method_name ~db:sol.Solution.db
    ~entries:(Prog.Proc.Tbl.map f sol.Solution.entries)
    ~call_records:(Solution.call_records sol) ~scc_runs:sol.Solution.scc_runs

(* ------------------------------------------------------------------ *)
(* solution_le must see globals                                        *)
(* ------------------------------------------------------------------ *)

let test_solution_le_globals () =
  let prog =
    parse
      {|
        global g;
        proc main() { g = 5; call f(); }
        proc f() { print g; }
      |}
  in
  let ctx = Context.create prog in
  let procs = O.reachable_procs ctx in
  let fs = Fs_icp.solve ctx in
  Alcotest.(check bool)
    "FS finds g = 5 at f's entry" true
    (L.equal (Solution.global_value fs "f" "g") (L.Const (Value.Int 5)));
  (* Demote every global to ⊥: the demoted solution is ⊑ FS but not the
     other way round.  A formals-only order would call them equal — f has
     no formals at all. *)
  let demoted =
    map_entries
      (fun e -> { e with Solution.pe_globals = [] })
      fs
  in
  Alcotest.(check bool)
    "demoted ⊑ fs" true
    (O.solution_le demoted fs ~procs);
  Alcotest.(check bool)
    "fs ⋢ demoted" false
    (O.solution_le fs demoted ~procs);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    go 0
  in
  match O.solution_le_witness fs demoted ~procs with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.(check bool) "witness names the global" true (contains w "global g")

(* ------------------------------------------------------------------ *)
(* Corrupted entry constants are caught                                *)
(* ------------------------------------------------------------------ *)

let test_catches_corrupt_entry () =
  let prog =
    parse
      {|
        proc main() { x = 1; call f(x); }
        proc f(u) { print u; }
      |}
  in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  Alcotest.(check bool)
    "healthy solution passes" true
    (Result.is_ok (O.check_solution_sound prog fs));
  let corrupted =
    map_entries
      (fun e ->
        {
          e with
          Solution.pe_formals =
            Array.map
              (function
                | L.Const (Value.Int 1) -> L.Const (Value.Int 2) | v -> v)
              e.Solution.pe_formals;
        })
      fs
  in
  match O.check_solution_sound prog corrupted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted entry constant not detected"

let test_catches_corrupt_global_entry () =
  let prog =
    parse
      {|
        global g;
        proc main() { g = 5; call f(); }
        proc f() { print g; }
      |}
  in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let corrupted =
    map_entries
      (fun e ->
        {
          e with
          Solution.pe_globals =
            List.map
              (fun (g, v) ->
                match v with
                | L.Const (Value.Int 5) -> (g, L.Const (Value.Int 6))
                | _ -> (g, v))
              e.Solution.pe_globals;
        })
      fs
  in
  match O.check_solution_sound prog corrupted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted global entry constant not detected"

(* ------------------------------------------------------------------ *)
(* Corrupted exit summaries are caught                                 *)
(* ------------------------------------------------------------------ *)

let test_catches_corrupt_return_summary () =
  let prog =
    parse
      {|
        proc main() { u = 0; call f(u); print u; }
        proc f(v) { v = 7; }
      |}
  in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let rc = Return_consts.compute ctx ~fs in
  Alcotest.(check bool)
    "healthy summaries pass" true
    (Result.is_ok (O.check_returns_sound prog rc));
  (match Return_consts.summary_of rc "f" with
  | None -> Alcotest.fail "no exit summary for f"
  | Some s ->
      Alcotest.(check bool)
        "summary claims v = 7 at exit" true
        (L.equal s.Return_consts.rs_formals.(0) (L.Const (Value.Int 7)));
      Hashtbl.replace rc.Return_consts.summaries "f"
        {
          s with
          Return_consts.rs_formals = [| L.Const (Value.Int 8) |];
        });
  match O.check_returns_sound prog rc with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted exit summary not detected"

(* ------------------------------------------------------------------ *)
(* The whole-program oracle                                            *)
(* ------------------------------------------------------------------ *)

let test_check_program_ok_on_corpus_program () =
  let prog =
    parse
      {|
        global g;
        blockdata { g = 3; }
        proc main() { x = 2; call f(x); call f(2); print g; }
        proc f(u) { if (u > 0) { g = g + 0; } print u; }
      |}
  in
  match O.check_program ~jobs:2 prog with
  | Ok () -> ()
  | Error f -> Alcotest.failf "oracle rejected a healthy program: %a" O.pp_failure f

let test_cycle_free_gating () =
  (* Per-SCC hierarchy gating: only procedures in or downstream of a PCG
     cycle are exempt from the poly⊑fs / fi⊑fs comparisons.  Here [r] is
     self-recursive and calls [b], so {r, b} are exempt, while [main]
     (upstream of the cycle) and [a] (disjoint from it) must still be
     checked — and the whole cyclic program must pass the full oracle. *)
  let prog =
    parse
      {|
        proc main() { call a(); call r(2); }
        proc a() { x = 1; print x; }
        proc r(n) { if (n > 0) { call r(n - 1); } call b(n); }
        proc b(m) { print m; }
      |}
  in
  let ctx = Context.create prog in
  let sorted = List.sort String.compare in
  Alcotest.(check (list string))
    "cycle-free region of a cyclic program"
    [ "a"; "main" ]
    (sorted (O.cycle_free_procs ctx));
  let acyclic =
    parse {| proc main() { x = 3; call f(x); } proc f(u) { print u; } |}
  in
  let actx = Context.create acyclic in
  Alcotest.(check (list string))
    "acyclic program: every procedure is cycle-free"
    (sorted (O.reachable_procs actx))
    (sorted (O.cycle_free_procs actx));
  match O.check_program ~jobs:2 prog with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "oracle rejected a healthy cyclic program: %a"
        O.pp_failure f

let test_check_seed_qcheck =
  Test_util.qcheck ~count:12 ~name:"oracle accepts generated programs"
    Test_util.seed_gen (fun seed ->
      match O.check_seed ~jobs:2 seed with
      | Ok () -> true
      | Error f -> QCheck2.Test.fail_reportf "seed %d: %a" seed O.pp_failure f)

(* The beyond-the-paper methods, exercised directly (the whole-program
   oracle also covers them, but through its own jobs handling): at both
   jobs=1 and jobs=4 the cc and vc solutions must be interpreter-sound,
   sit above FS in the extended hierarchy, and be identical across the
   two job counts. *)
let test_cc_vc_qcheck =
  Test_util.qcheck ~count:12 ~name:"cc/vc sound and above fs at jobs {1,4}"
    Test_util.seed_gen (fun seed ->
      let prog = O.program_of_seed seed in
      let solve jobs =
        let ctx = Context.create ~jobs prog in
        let fs = Fs_icp.solve ~jobs ctx in
        let cc = Cc_icp.solve ~jobs ctx in
        let vc = Vc_icp.solve ~jobs ctx in
        (ctx, fs, cc, vc)
      in
      let check jobs (ctx, fs, cc, vc) =
        let procs = O.reachable_procs ctx in
        List.iter
          (fun (name, sol) ->
            (match O.check_solution_sound prog sol with
            | Ok () -> ()
            | Error d ->
                QCheck2.Test.fail_reportf "seed %d jobs %d: %s unsound: %s"
                  seed jobs name d);
            match O.solution_le_witness fs sol ~procs with
            | None -> ()
            | Some w ->
                QCheck2.Test.fail_reportf "seed %d jobs %d: fs ⋢ %s: %s" seed
                  jobs name w)
          [ ("cc", cc); ("vc", vc) ]
      in
      let ((_, _, cc1, vc1) as r1) = solve 1 in
      let ((_, _, cc4, vc4) as r4) = solve 4 in
      check 1 r1;
      check 4 r4;
      String.equal (Solution.digest cc1) (Solution.digest cc4)
      && String.equal (Solution.digest vc1) (Solution.digest vc4))

(* The DISPATCH addendum workload (EXPERIMENTS.md gains table): the full
   oracle must accept it, and the value-context method must find strictly
   more entry constants than FS on it — the precision separation the
   calibrated suite cannot exhibit.  CC may only tie or gain, never lose. *)
let test_dispatch_addendum () =
  let prog =
    Fsicp_workloads.Spec.program (List.hd Fsicp_workloads.Spec.addendum)
  in
  (match O.check_program ~jobs:2 prog with
  | Ok () -> ()
  | Error f -> Alcotest.failf "dispatch: %a" O.pp_failure f);
  let ctx = Context.create ~jobs:1 prog in
  let fs = Fs_icp.solve ~jobs:1 ctx in
  let cc = Cc_icp.solve ctx in
  let vc = Vc_icp.solve ctx in
  let count sol =
    List.length (Solution.constant_formals sol)
    + List.length (Solution.constant_globals sol)
  in
  Alcotest.(check bool)
    "vc finds strictly more constants than fs" true
    (count vc > count fs);
  Alcotest.(check bool) "cc finds no fewer constants than fs" true
    (count cc >= count fs)

(* A chain that a back edge lowers one procedure per pass: [main] calls
   [p1(1)] with [g = 0], each [p_i] prints its formal and calls [p_{i+1}]
   while [g == 0], and [p_k] sets [g = 1] and calls back into [p_{k-1}(2)],
   which walks the chain down to [p1] with 2.  The optimistic iterations
   need about [k] passes to lower [p1]'s formal. *)
let back_chain k =
  let b = Buffer.create 4096 in
  Buffer.add_string b "global g;\nproc main() { g = 0; call p1(1); }\n";
  for i = 1 to k - 1 do
    Printf.bprintf b "proc p%d(a) { print a; if (g == 0) { call p%d(a); }%s }\n"
      i (i + 1)
      (if i = 1 then "" else Printf.sprintf " else { call p%d(a); }" (i - 1))
  done;
  Printf.bprintf b "proc p%d(a) { g = 1; call p%d(2); }\n" k (k - 1);
  parse (Buffer.contents b)

(* A CC or Reference run that stops before it converges publishes [p1]'s
   formal as the constant 1, and folding under it deletes [p1]'s
   [if (g == 0)], so the folded program never stops.  Both budgets cover
   the chain: each run converges, and neither falls back to FS. *)
let test_pass_budget_long_chain () =
  let total = Fsicp_trace.Trace.counter_total in
  let fallbacks () = total "cc.fs_fallback" + total "ref.fs_fallback" in
  let fallbacks0 = fallbacks () in
  let check name prog sol =
    Alcotest.check Test_util.lattice_testable
      (name ^ ": p1's formal") L.Bot
      (Solution.formal_value sol "p1" 0);
    match O.check_solution_sound prog sol with
    | Ok () -> ()
    | Error d -> Alcotest.failf "%s unsound: %s" name d
  in
  let prog = back_chain 101 in
  let ctx = Context.create ~jobs:1 prog in
  let cc = Cc_icp.solve ctx in
  check "cc, k = 101" prog cc;
  let prints p = (Fsicp_interp.Interp.run p).Fsicp_interp.Interp.prints in
  Alcotest.(check (list Test_util.value_testable))
    "folding under cc keeps the output" (prints prog)
    (prints (Fold.fold_program ctx cc));
  let prog = back_chain 130 in
  check "ref, k = 130" prog (Reference.solve (Context.create ~jobs:1 prog));
  Alcotest.(check int) "no FS fallback" fallbacks0 (fallbacks ())

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_minimises () =
  (* A synthetic "bug": the program prints the value 42 somewhere.  The
     shrinker must peel away everything else while keeping Sema-cleanness
     and the property. *)
  let prog = O.program_of_seed 11 in
  let prog =
    {
      prog with
      Ast.procs =
        List.map
          (fun (p : Ast.proc) ->
            if String.equal p.Ast.pname prog.Ast.main then
              {
                p with
                Ast.body =
                  p.Ast.body
                  @ [
                      {
                        Ast.sdesc = Ast.Print (Ast.Const (Value.Int 42));
                        spos = Ast.no_pos;
                      };
                    ];
              }
            else p)
          prog.Ast.procs;
    }
  in
  let prints_42 p =
    match Fsicp_interp.Interp.run_opt ~fuel:500_000 p with
    | None -> false
    | Some r -> List.exists (Value.equal (Value.Int 42)) r.Fsicp_interp.Interp.prints
  in
  Alcotest.(check bool) "seed program has the property" true (prints_42 prog);
  let small = Shrink.shrink ~still_fails:prints_42 prog in
  Sema.check_exn small;
  Alcotest.(check bool) "shrunk program keeps the property" true (prints_42 small);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to few statements (got %d)" (Shrink.stmt_count small))
    true
    (Shrink.stmt_count small <= 3);
  Alcotest.(check bool)
    "only main survives" true
    (List.length small.Ast.procs = 1)

let test_shrink_respects_budget () =
  let prog = O.program_of_seed 12 in
  let calls = ref 0 in
  let still_fails _ =
    incr calls;
    true
  in
  ignore (Shrink.shrink ~max_checks:25 ~still_fails prog);
  Alcotest.(check bool)
    (Printf.sprintf "bounded candidate evaluations (got %d)" !calls)
    true (!calls <= 25)

(* ------------------------------------------------------------------ *)
(* Reproducer corpus replay                                            *)
(* ------------------------------------------------------------------ *)

let regressions_dir =
  Filename.concat (Filename.concat Test_util.source_root "testdata")
    "regressions"

let regression_files () =
  if Sys.file_exists regressions_dir && Sys.is_directory regressions_dir then
    Sys.readdir regressions_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mf")
    |> List.sort String.compare
  else []

let test_regression_replay name () =
  let path = Filename.concat regressions_dir name in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let prog = Parser.program_of_string src in
  Sema.check_exn prog;
  (match O.check_program ~jobs:2 prog with
  | Ok () -> ()
  | Error f -> Alcotest.failf "%s: %a" name O.pp_failure f);
  (* Replayed reproducers must also clear translation validation — this is
     how [fsicp fuzz --vc] counterexamples stay fixed. *)
  match O.check_transform_vc prog with
  | Ok () -> ()
  | Error f -> Alcotest.failf "%s: %a" name O.pp_failure f

let test_write_reproducer_roundtrip () =
  let prog =
    parse {| proc main() { x = 3; call f(x); } proc f(u) { print u; } |}
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fsicp-oracle-test" in
  let failure = { O.f_check = "sound:fs"; f_detail = "demo" } in
  let path = O.write_reproducer ~dir ~name:"roundtrip" ~failure ~seed:1 prog in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let reparsed = Parser.program_of_string src in
  Alcotest.(check bool)
    "reproducer reparses to the same program" true
    (Ast.equal_program prog reparsed);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "solution_le sees globals" `Quick test_solution_le_globals;
    Alcotest.test_case "catches corrupt formal entry" `Quick
      test_catches_corrupt_entry;
    Alcotest.test_case "catches corrupt global entry" `Quick
      test_catches_corrupt_global_entry;
    Alcotest.test_case "catches corrupt exit summary" `Quick
      test_catches_corrupt_return_summary;
    Alcotest.test_case "whole-program oracle accepts healthy program" `Quick
      test_check_program_ok_on_corpus_program;
    Alcotest.test_case "per-SCC hierarchy gating" `Quick
      test_cycle_free_gating;
    test_check_seed_qcheck;
    test_cc_vc_qcheck;
    Alcotest.test_case "dispatch addendum: vc strictly beats fs" `Quick
      test_dispatch_addendum;
    Alcotest.test_case "pass budget: long back-edge chain" `Quick
      test_pass_budget_long_chain;
    Alcotest.test_case "shrinker minimises" `Quick test_shrink_minimises;
    Alcotest.test_case "shrinker respects budget" `Quick
      test_shrink_respects_budget;
    Alcotest.test_case "reproducer round-trips" `Quick
      test_write_reproducer_roundtrip;
  ]
  @ List.map
      (fun f ->
        Alcotest.test_case ("regression " ^ f) `Quick (test_regression_replay f))
      (regression_files ())
