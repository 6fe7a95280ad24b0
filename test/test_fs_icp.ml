(** Tests for the flow-sensitive ICP of paper Figure 4 — the paper's main
    contribution.  Covers the one-SCC-per-procedure discipline, dead-call
    pruning, the flow-insensitive fallback on back edges, the exactness
    property on acyclic PCGs (FS = iterative reference), the precision
    hierarchy FI ⊑ FS ⊑ iterative, and interpreter soundness. *)

open Fsicp_lang
open Fsicp_core
open Fsicp_scc
module L = Lattice
module P = Lattice.P

let lat = Test_util.lattice_testable

let solve src =
  let ctx = Context.create (Test_util.parse src) in
  (ctx, Fs_icp.solve ctx)

let test_local_constant_propagates () =
  let _, sol =
    solve {|proc main() { x = 3; call f(x); } proc f(a) { print a; }|}
  in
  Alcotest.check lat "locally computed constant" (L.Const (Value.Int 3))
    (Solution.formal_value sol "f" 0)

let test_join_constant_propagates () =
  let _, sol =
    solve
      {|proc main() { if (u) { x = 3; } else { x = 3; } call f(x); }
        proc f(a) { print a; }|}
  in
  Alcotest.check lat "same constant on all paths" (L.Const (Value.Int 3))
    (Solution.formal_value sol "f" 0)

let test_dead_call_site_ignored () =
  (* The call passing 9 is unreachable; only 3 reaches f. *)
  let _, sol =
    solve
      {|proc main() {
          if (0) { call f(9); }
          call f(3);
        }
        proc f(a) { print a; }|}
  in
  Alcotest.check lat "dead call contributes nothing" (L.Const (Value.Int 3))
    (Solution.formal_value sol "f" 0)

let test_interprocedurally_dead_call () =
  (* The branch in mid is dead only once main's constant is known. *)
  let _, sol =
    solve
      {|proc main() { call mid(0); }
        proc mid(s) {
          if (s != 0) { call f(9); } else { call f(3); }
        }
        proc f(a) { print a; }|}
  in
  Alcotest.check lat "interprocedural pruning" (L.Const (Value.Int 3))
    (Solution.formal_value sol "f" 0)

let test_globals_at_call_sites () =
  let _, sol =
    solve
      {|global g;
        proc main() { g = 5; call f(); g = 6; call h(); }
        proc f() { print g; }
        proc h() { print g; }|}
  in
  Alcotest.check lat "g = 5 at first call" (L.Const (Value.Int 5))
    (Solution.global_value sol "f" "g");
  Alcotest.check lat "g = 6 at second call" (L.Const (Value.Int 6))
    (Solution.global_value sol "h" "g")

let test_global_meet_across_sites () =
  let _, sol =
    solve
      {|global g;
        proc main() { g = 5; call f(); g = 6; call f(); }
        proc f() { print g; }|}
  in
  Alcotest.check lat "different values meet to bot" L.Bot
    (Solution.global_value sol "f" "g")

let test_blockdata_reaches_main_calls () =
  let _, sol =
    solve
      {|blockdata { g = 4; }
        proc main() { call f(); }
        proc f() { print g; }|}
  in
  Alcotest.check lat "blockdata global at call" (L.Const (Value.Int 4))
    (Solution.global_value sol "f" "g")

let test_one_scc_per_proc () =
  let ctx, sol =
    solve
      {|proc main() { call a(); call b(); }
        proc a() { call c(); }
        proc b() { call c(); }
        proc c() { }|}
  in
  Alcotest.(check int) "4 procs, 4 SCC runs"
    (Array.length ctx.Context.pcg.Fsicp_callgraph.Callgraph.nodes)
    sol.Solution.scc_runs

let test_one_scc_per_proc_with_recursion () =
  let ctx, sol =
    solve
      {|proc main() { call f(1); }
        proc f(a) { if (u) { call g(a); } }
        proc g(b) { if (u) { call f(b); } }|}
  in
  Alcotest.(check int) "recursion: still one SCC per proc"
    (Array.length ctx.Context.pcg.Fsicp_callgraph.Callgraph.nodes)
    sol.Solution.scc_runs

let test_back_edge_uses_fi () =
  (* g and f are mutually recursive; the back edge g->f contributes the FI
     status of its argument.  The argument is a locally-computed constant
     (invisible to FI), so even though both dynamic values agree, the FS
     one-pass method must conservatively lower f's formal. *)
  let _, sol =
    solve
      {|proc main() { call f(3); }
        proc f(a) { if (u) { x = 3; call g(x); } print a; }
        proc g(b) { if (u) { y = 3; call f(y); } print b; }|}
  in
  (* forward edge main->f carries 3; back edge g->f carries FI(y)=bot *)
  Alcotest.check lat "back edge falls back to FI" L.Bot
    (Solution.formal_value sol "f" 0)

let test_back_edge_literal_stays () =
  (* With literal arguments the FI fallback still sees constants. *)
  let _, sol =
    solve
      {|proc main() { call f(3); }
        proc f(a) { if (u) { call f(3); } print a; }|}
  in
  Alcotest.check lat "literal recursion stays constant"
    (L.Const (Value.Int 3))
    (Solution.formal_value sol "f" 0)

let test_by_ref_kill () =
  (* f modifies its by-reference argument, so x is unknown at the second
     call. *)
  let _, sol =
    solve
      {|proc main() { x = 1; call set(x); call f(x); }
        proc set(p) { p = p + u; }
        proc f(a) { print a; }|}
  in
  Alcotest.check lat "by-ref modification kills constant" L.Bot
    (Solution.formal_value sol "f" 0)

let test_figure1_values () =
  let ctx = Context.create Fsicp_workloads.Figure1.program in
  let sol = Fs_icp.solve ctx in
  List.iter
    (fun (p, i, v) ->
      Alcotest.check lat
        (Printf.sprintf "%s formal %d" p i)
        (L.Const (Value.Int v))
        (Solution.formal_value sol p i))
    [ ("sub1", 0, 0); ("sub2", 0, 0); ("sub2", 1, 4); ("sub2", 2, 0);
      ("sub2", 3, 1) ]

(* -- properties --------------------------------------------------------- *)

let entries_equal (a : Solution.t) (b : Solution.t) procs =
  List.for_all
    (fun proc ->
      let ea = Solution.entry a proc and eb = Solution.entry b proc in
      Array.length ea.Solution.pe_formals = Array.length eb.Solution.pe_formals
      && Array.for_all2 L.equal ea.Solution.pe_formals eb.Solution.pe_formals
      && List.equal
           (fun (g, v) (g', v') ->
             Fsicp_prog.Prog.Var.equal g g' && L.equal v v')
           ea.Solution.pe_globals eb.Solution.pe_globals)
    procs

let prop_acyclic_equals_reference =
  Test_util.qcheck ~count:40
    ~name:"acyclic PCG: FS = iterative flow-sensitive solution"
    Test_util.seed_gen
    (fun seed ->
      (* force an acyclic profile *)
      let profile =
        {
          (Fsicp_workloads.Generator.small_profile seed) with
          Fsicp_workloads.Generator.g_back_edge_prob = 0.0;
        }
      in
      let prog = Fsicp_workloads.Generator.generate profile in
      let ctx = Context.create prog in
      if Fsicp_callgraph.Callgraph.has_cycles ctx.Context.pcg then true
      else begin
        let fs = Fs_icp.solve ctx in
        let reference = Reference.solve ctx in
        entries_equal fs reference (Test_util.reachable_procs ctx)
      end)

let prop_fi_below_fs =
  Test_util.qcheck ~count:50 ~name:"FI ⊑ FS on formal constants (acyclic)"
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
      let fi = Fi_icp.solve ctx in
      let fs = Fs_icp.solve ~fi ctx in
      Test_util.solution_le fi fs ~procs:(Test_util.reachable_procs ctx))

let prop_fs_below_reference =
  Test_util.qcheck ~count:40 ~name:"FS ⊑ iterative reference (cyclic too)"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let fs = Fs_icp.solve ctx in
      let reference = Reference.solve ctx in
      Test_util.solution_le fs reference
        ~procs:(Test_util.reachable_procs ctx))

let prop_sound =
  Test_util.qcheck ~count:80 ~name:"FS solution sound w.r.t. interpreter"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let sol = Fs_icp.solve ctx in
      match Test_util.check_solution_sound prog sol with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

let prop_reference_sound =
  Test_util.qcheck ~count:40 ~name:"iterative reference sound too"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let sol = Reference.solve ctx in
      match Test_util.check_solution_sound prog sol with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

let prop_one_scc_per_proc =
  Test_util.qcheck ~count:50 ~name:"always exactly one SCC per procedure"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let ctx = Context.create prog in
      let sol = Fs_icp.solve ctx in
      sol.Solution.scc_runs
      = Array.length ctx.Context.pcg.Fsicp_callgraph.Callgraph.nodes)

(* The entry-vector layout and [main]'s block-data fallback.  [g] is only
   written (by [f]), so it is outside every REF closure yet versioned in
   [main]: its entry value is block data there and ⊥ in any other
   procedure.  No solver output shows the fallback, so check it directly,
   and the same rule in [Entry_vec.of_entry]. *)
let test_entry_vec_layout () =
  let ctx =
    Context.create
      (Test_util.parse
         {|blockdata { k = 7; g = 3; }
           proc main() { call f(1); print k; }
           proc f(a) { g = a; print k; }|})
  in
  let module Cg = Fsicp_callgraph.Callgraph in
  let module Ir = Fsicp_cfg.Ir in
  let module V = Fsicp_prog.Prog.Var in
  let roots = Entry_vec.roots ctx in
  let pid name = Cg.proc_id_exn ctx.Context.pcg name in
  let sh_main = Entry_vec.shape ctx "main" and sh_f = Entry_vec.shape ctx "f" in
  let var name vkind = { Ir.vid = V.intern name; vkind } in
  let k = V.intern "k" and g = V.intern "g" in
  Alcotest.(check int) "f: one formal" 1 sh_f.Entry_vec.nf;
  Alcotest.(check int) "f: formal, then k" 2 (Entry_vec.size sh_f);
  Alcotest.(check int) "f: k follows the formals" 1 (Entry_vec.global_slot sh_f k);
  Alcotest.(check int) "main: k is slot 0" 0 (Entry_vec.global_slot sh_main k);
  Alcotest.(check int) "g is outside the closure" (-1)
    (Entry_vec.global_slot sh_main g);
  let slot s = P.of_int (100 + s) in
  let env_main = Entry_vec.env roots sh_main (pid "main") slot in
  let env_f = Entry_vec.env roots sh_f (pid "f") slot in
  Alcotest.(check int) "closure global reads its slot" (slot 0)
    (env_main (var "k" Ir.Global));
  Alcotest.(check int) "formal reads its slot" (slot 0)
    (env_f (var "a" (Ir.Formal 0)));
  Alcotest.(check int) "formal past nf is bottom" P.bot
    (env_f (var "a" (Ir.Formal 1)));
  Alcotest.(check int) "main: non-closure global reads block data"
    (P.of_int 3) (env_main (var "g" Ir.Global));
  Alcotest.(check int) "f: non-closure global is bottom" P.bot
    (env_f (var "g" Ir.Global));
  let no_calls _ _ = () in
  Alcotest.(check (array int)) "main's root vector" [| P.of_int 7 |]
    (Entry_vec.entry roots sh_main (pid "main") no_calls);
  Alcotest.(check (array int)) "f: unreached slots finalize to bottom"
    [| P.bot; P.bot |]
    (Entry_vec.entry roots sh_f (pid "f") no_calls);
  Alcotest.(check (array int)) "f: a contribution meets into its slot"
    [| P.of_int 1; P.bot |]
    (Entry_vec.entry roots sh_f (pid "f") (fun _ v ->
         Entry_vec.meet_site sh_f v ~word:Fun.id [| P.of_int 1 |] []));
  (* A boxed entry read back as slots: what it lists is encoded, and an
     unlisted slot reads what [env] gives a global outside the closure. *)
  let listed =
    {
      Solution.pe_formals = [| L.Const (Value.Int 1) |];
      pe_globals = [ (k, L.Const (Value.Int 5)) ];
    }
  in
  Alcotest.(check (array int)) "f: a listed entry is encoded"
    [| P.of_int 1; P.of_int 5 |]
    (Entry_vec.of_entry roots sh_f (pid "f") listed);
  Alcotest.(check (array int)) "f: unlisted slots read bottom"
    [| P.bot; P.bot |]
    (Entry_vec.of_entry roots sh_f (pid "f") Solution.empty_entry);
  Alcotest.(check (array int)) "main: an unlisted global reads block data"
    [| P.of_int 7 |]
    (Entry_vec.of_entry roots sh_main (pid "main") Solution.empty_entry)

(* Under [Par.cutoff] procedures a solve at [jobs 2] takes the [jobs 1]
   path: no SSA pre-build, so each procedure's SSA is built once at its
   turn in the sweep and the SSA counters read the same at both. *)
let test_ssa_counters_below_cutoff () =
  let prog =
    Fsicp_workloads.Spec.(
      program (List.find (fun b -> b.b_name = "013.SPICE2G6") suite))
  in
  let counts jobs =
    let ctx = Context.create ~jobs prog in
    let total = Fsicp_trace.Trace.counter_total in
    let built = total "ssa.built" and hits = total "ssa.cache_hits" in
    ignore (Fs_icp.solve ~jobs ctx);
    (total "ssa.built" - built, total "ssa.cache_hits" - hits)
  in
  let b1, h1 = counts 1 and b2, h2 = counts 2 in
  Alcotest.(check (pair int int)) "ssa.built, ssa.cache_hits: jobs 2 = jobs 1"
    (b1, h1) (b2, h2)

(* Copy propagation subsumes constant propagation (Sreekala and Paleri):
   without back edges CC's first pass meets exactly the records FS meets,
   and reading a copy word as ⊥ is FS's kernel run, so the two agree on
   every entry and every call record. *)
let cc_equals_fs ctx =
  let fs = Fs_icp.solve ctx and cc = Cc_icp.solve ctx in
  let procs =
    Array.to_list ctx.Context.pcg.Fsicp_callgraph.Callgraph.nodes
    |> List.map (Solution.proc_name fs)
  in
  entries_equal fs cc procs
  && List.equal
       (fun (a : Solution.callsite_record) (b : Solution.callsite_record) ->
         a.Solution.cr_caller = b.Solution.cr_caller
         && a.Solution.cr_cs_index = b.Solution.cr_cs_index
         && Solution.record_equal a b)
       (Solution.call_records fs) (Solution.call_records cc)

let prop_acyclic_cc_equals_fs =
  Test_util.qcheck ~count:40 ~name:"acyclic PCG: CC = FS" Test_util.seed_gen
    (fun seed ->
      let profile =
        {
          (Fsicp_workloads.Generator.small_profile seed) with
          Fsicp_workloads.Generator.g_back_edge_prob = 0.0;
        }
      in
      let ctx = Context.create (Fsicp_workloads.Generator.generate profile) in
      Fsicp_callgraph.Callgraph.has_cycles ctx.Context.pcg || cc_equals_fs ctx)

let test_suite_cc_equals_fs () =
  List.iter
    (fun (b : Fsicp_workloads.Spec.benchmark) ->
      let ctx = Context.create (Fsicp_workloads.Spec.program b) in
      Alcotest.(check bool)
        (b.Fsicp_workloads.Spec.b_name ^ ": CC = FS")
        true (cc_equals_fs ctx))
    Fsicp_workloads.Spec.suite

let suite =
  [
    Alcotest.test_case "local constant propagates" `Quick
      test_local_constant_propagates;
    Alcotest.test_case "join constant propagates" `Quick
      test_join_constant_propagates;
    Alcotest.test_case "dead call ignored" `Quick test_dead_call_site_ignored;
    Alcotest.test_case "interprocedurally dead call" `Quick
      test_interprocedurally_dead_call;
    Alcotest.test_case "globals at call sites" `Quick test_globals_at_call_sites;
    Alcotest.test_case "global meet across sites" `Quick
      test_global_meet_across_sites;
    Alcotest.test_case "blockdata reaches calls" `Quick
      test_blockdata_reaches_main_calls;
    Alcotest.test_case "one SCC per procedure" `Quick test_one_scc_per_proc;
    Alcotest.test_case "one SCC per procedure (recursive)" `Quick
      test_one_scc_per_proc_with_recursion;
    Alcotest.test_case "back edge falls back to FI" `Quick test_back_edge_uses_fi;
    Alcotest.test_case "literal recursion stays constant" `Quick
      test_back_edge_literal_stays;
    Alcotest.test_case "by-ref modification kills" `Quick test_by_ref_kill;
    Alcotest.test_case "figure 1 values" `Quick test_figure1_values;
    prop_acyclic_equals_reference;
    prop_fi_below_fs;
    prop_fs_below_reference;
    prop_sound;
    prop_reference_sound;
    prop_one_scc_per_proc;
    Alcotest.test_case "entry vector layout and main fallback" `Quick
      test_entry_vec_layout;
    Alcotest.test_case "SPICE: SSA counters equal at jobs 1 and 2" `Quick
      test_ssa_counters_below_cutoff;
    prop_acyclic_cc_equals_fs;
    Alcotest.test_case "suite: CC = FS" `Quick test_suite_cc_equals_fs;
  ]
