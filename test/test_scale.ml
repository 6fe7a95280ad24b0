(** Tests for the size-parametric scale corpora and the eager/streaming
    solve paths: generator determinism, direct-AST ≡ text-path equivalence,
    digest equality across {eager, streaming} × {jobs 1, 4}, and the
    strict spec parsers. *)

open Fsicp_lang
open Fsicp_core
open Fsicp_workloads
module Callgraph = Fsicp_callgraph.Callgraph
module Prog = Fsicp_prog.Prog
module Scc = Fsicp_scc.Scc

let spec family procs seed =
  { Scale.sp_family = family; sp_procs = procs; sp_seed = seed }

let family_name = Scale.family_to_string

(* -- generator ------------------------------------------------------------ *)

let test_deterministic () =
  List.iter
    (fun f ->
      let s = spec f 60 7 in
      let p1 = Scale.generate s and p2 = Scale.generate s in
      Alcotest.(check bool)
        (family_name f ^ ": same spec, same program")
        true
        (Ast.equal_program p1 p2);
      Alcotest.(check string)
        (family_name f ^ ": same spec, same digest")
        (Scale.digest p1) (Scale.digest p2))
    Scale.all_families

let test_seed_sensitivity () =
  List.iter
    (fun f ->
      let p1 = Scale.generate (spec f 60 1) in
      let p2 = Scale.generate (spec f 60 2) in
      (* Chain/Fanout/Common are mostly structural, but the PRNG still
         perturbs constants, so the digests must differ. *)
      Alcotest.(check bool)
        (family_name f ^ ": different seeds differ")
        false
        (String.equal (Scale.digest p1) (Scale.digest p2)))
    Scale.all_families

let test_sema_clean () =
  List.iter
    (fun f ->
      let p = Scale.generate (spec f 80 3) in
      match Sema.check p with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s: ill-formed: %s" (family_name f)
            (Sema.errors_to_string errs))
    Scale.all_families

let test_text_path_equivalence () =
  (* The direct AST emission must agree with what a pretty-print → parse
     round trip reconstructs: the text path is the cross-process identity
     ([Scale.digest]), so any divergence would split the two worlds. *)
  List.iter
    (fun f ->
      let p = Scale.generate (spec f 40 11) in
      let text = Pretty.program_to_string p in
      let p' = Parser.program_of_string text in
      Sema.check_exn p';
      Alcotest.(check bool)
        (family_name f ^ ": direct AST = parsed pretty-print")
        true
        (Ast.equal_program p p'))
    Scale.all_families

let test_proc_count_and_reachability () =
  List.iter
    (fun f ->
      let procs = 50 in
      let p = Scale.generate (spec f procs 5) in
      Alcotest.(check int)
        (family_name f ^ ": requested procedure count")
        procs
        (List.length p.Ast.procs);
      let pcg = Callgraph.build p in
      Alcotest.(check int)
        (family_name f ^ ": every procedure reachable from main")
        procs (Callgraph.n_procs pcg))
    Scale.all_families

(* -- solve-path digest agreement ----------------------------------------- *)

let digest_of ~mode ~jobs prog =
  let ctx =
    match mode with
    | `Eager -> Context.create ~jobs prog
    | `Streaming -> Context.create_streaming prog
  in
  Solution.digest (Fs_icp.solve ~jobs ctx)

let test_digest_modes_agree () =
  (* Mixed exercises all four families (including recursive cliques, so
     the FI back-edge seed is live); the four solve paths must agree
     byte-for-byte. *)
  let prog = Scale.generate (spec Scale.Mixed 300 4) in
  let reference = digest_of ~mode:`Eager ~jobs:1 prog in
  List.iter
    (fun (mode, jobs, label) ->
      Alcotest.(check string)
        (label ^ " = eager jobs=1")
        reference
        (digest_of ~mode ~jobs prog))
    [
      (`Eager, 4, "eager jobs=4");
      (`Streaming, 1, "streaming jobs=1");
      (`Streaming, 4, "streaming jobs=4");
    ]

let test_streaming_retires_ssa () =
  (* A streaming solve retires each procedure's SSA once its records are
     extracted: every retained [Scc.result] must carry [proc = None] (not
     some other procedure's SSA as a placeholder), the packed arrays must
     still be present (the digest above depends on them), and the
     SSA-dependent accessors must raise rather than answer from stale
     structure. *)
  let prog = Scale.generate (spec Scale.Mixed 100 7) in
  let ctx = Context.create_streaming prog in
  let fs = Fs_icp.solve ~jobs:1 ctx in
  let n = Callgraph.n_procs ctx.Context.pcg in
  Alcotest.(check bool) "program has procedures" true (n > 0);
  Array.iter
    (fun pid ->
      match Prog.Proc.Tbl.get fs.Solution.scc_results pid with
      | None -> Alcotest.fail "streaming solve dropped an SCC result"
      | Some (r : Scc.result) ->
          Alcotest.(check bool) "SSA retired" true (r.Scc.proc = None);
          Alcotest.(check bool) "values survive retirement" true
            (Array.length r.Scc.values > 0);
          (match Scc.proc_exn r with
          | _ -> Alcotest.fail "proc_exn answered on a retired result"
          | exception Invalid_argument _ -> ());
          (match Scc.substitution_count r with
          | _ ->
              Alcotest.fail
                "substitution_count answered on a retired result"
          | exception Invalid_argument _ -> ()))
    ctx.Context.pcg.Callgraph.nodes;
  (* An eager solve of the same program keeps every SSA. *)
  let eager = Context.create ~jobs:1 prog in
  let fs_eager = Fs_icp.solve ~jobs:1 eager in
  Array.iter
    (fun pid ->
      match Prog.Proc.Tbl.get fs_eager.Solution.scc_results pid with
      | Some r ->
          Alcotest.(check bool) "eager keeps SSA" true (r.Scc.proc <> None)
      | None -> Alcotest.fail "eager solve dropped an SCC result")
    eager.Context.pcg.Callgraph.nodes

let test_streaming_builds_once () =
  (* Retirement drops a procedure's IR, alias kills and SSA as soon as its
     analysis is done, and nothing asks for them again: every reachable
     procedure is lowered and SSA-built exactly once, at one domain or
     four, and the solution is the eager one. *)
  let prog = Scale.generate (spec Scale.Mixed 300 5) in
  let eager = digest_of ~mode:`Eager ~jobs:1 prog in
  List.iter
    (fun jobs ->
      let total = Fsicp_trace.Trace.counter_total in
      let lowered = total "lower.procs" and built = total "ssa.built" in
      let ctx = Context.create_streaming prog in
      let fs = Fs_icp.solve ~jobs ctx in
      let n = Callgraph.n_procs ctx.Context.pcg in
      let label what = Printf.sprintf "jobs %d: %s" jobs what in
      Alcotest.(check int) (label "lower.procs") n (total "lower.procs" - lowered);
      Alcotest.(check int) (label "ssa.built") n (total "ssa.built" - built);
      Alcotest.(check string) (label "digest = eager jobs=1") eager
        (Solution.digest fs))
    [ 1; 4 ]

let qcheck_spec_gen =
  QCheck2.Gen.(
    let* family = oneofl Scale.all_families in
    let* procs = int_range 10 120 in
    let* seed = int_range 0 10_000 in
    return (spec family procs seed))

let qcheck_jobs_streaming_digest =
  Test_util.qcheck ~count:12
    ~name:"random spec: digests agree across jobs and streaming"
    qcheck_spec_gen (fun s ->
      let prog = Scale.generate s in
      let d1 = digest_of ~mode:`Eager ~jobs:1 prog in
      let d4 = digest_of ~mode:`Eager ~jobs:4 prog in
      let ds = digest_of ~mode:`Streaming ~jobs:4 prog in
      if not (String.equal d1 d4 && String.equal d1 ds) then
        QCheck2.Test.fail_reportf
          "digest split on %s procs=%d seed=%d: eager1=%s eager4=%s stream4=%s"
          (family_name s.Scale.sp_family)
          s.Scale.sp_procs s.Scale.sp_seed d1 d4 ds
      else true)

(* -- spec parsing --------------------------------------------------------- *)

let test_parse_procs () =
  let ok s n =
    match Scale.parse_procs s with
    | Ok v -> Alcotest.(check int) (Printf.sprintf "procs %S" s) n v
    | Error e -> Alcotest.failf "procs %S rejected: %s" s e
  in
  let bad s =
    match Scale.parse_procs s with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "procs %S accepted as %d" s v
  in
  ok "2" 2;
  ok " 10000 " 10_000;
  ok "2000000" 2_000_000;
  bad "1";
  bad "0";
  bad "-5";
  bad "2000001";
  bad "";
  bad "ten";
  bad "1e4"

let test_parse_seed () =
  let ok s n =
    match Scale.parse_seed s with
    | Ok v -> Alcotest.(check int) (Printf.sprintf "seed %S" s) n v
    | Error e -> Alcotest.failf "seed %S rejected: %s" s e
  in
  let bad s =
    match Scale.parse_seed s with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "seed %S accepted as %d" s v
  in
  ok "0" 0;
  ok "-3" (-3);
  ok " 42 " 42;
  bad "";
  bad "4.2";
  bad "seed"

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "sema clean" `Quick test_sema_clean;
    Alcotest.test_case "text-path equivalence" `Quick
      test_text_path_equivalence;
    Alcotest.test_case "proc count and reachability" `Quick
      test_proc_count_and_reachability;
    Alcotest.test_case "digest: modes and jobs agree" `Slow
      test_digest_modes_agree;
    Alcotest.test_case "streaming retires SSA from Scc.result" `Quick
      test_streaming_retires_ssa;
    Alcotest.test_case "streaming builds each procedure once" `Quick
      test_streaming_builds_once;
    qcheck_jobs_streaming_digest;
    Alcotest.test_case "parse_procs" `Quick test_parse_procs;
    Alcotest.test_case "parse_seed" `Quick test_parse_seed;
  ]
