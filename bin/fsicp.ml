(** [fsicp] — command-line driver for the flow-sensitive interprocedural
    constant propagation library.

    {v
    fsicp analyze FILE [--method M] [--no-floats] [--jobs N]
                                                     constants found by M
    fsicp pipeline FILE [--jobs N]                   full Figure-2 pipeline
    fsicp run FILE                                   interpret the program
    fsicp dump FILE --what ast|cfg|ssa|pcg|modref    intermediate forms
    fsicp fold FILE [--method M]                     folded/optimised output
    fsicp tables [--table N] [--quick]               paper tables 1..5 etc.
    fsicp generate --seed N [--procs P] [--back B]   synthetic program
    fsicp fuzz [--seeds N] [--start S] [--no-shrink] differential oracle
    fsicp fuzz --edits K [--seeds N]                 edit-sequence oracle
    fsicp fuzz --vc [--seeds N]                      also check transform VCs
    fsicp verify FILE [--solver z3|symbolic]         translation validation
    fsicp trace FILE [--trace-out F] [--wall]        Chrome trace_event JSON
    fsicp serve --socket PATH [--program FILE]       analysis daemon
    fsicp client --socket PATH [REQUEST...]          send daemon requests
    v} *)

open Cmdliner
open Fsicp_lang
open Fsicp_core
open Fsicp_workloads
open Fsicp_report

let read_program path =
  let src =
    match In_channel.with_open_bin path In_channel.input_all with
    | src -> src
    | exception Sys_error msg ->
        Fmt.epr "%s: cannot read: %s@." path msg;
        exit 2
  in
  match Parser.program_of_string src with
  | prog -> (
      match Sema.check prog with
      | Ok () -> prog
      | Error es ->
          Fmt.epr "%s: semantic errors:@\n%s@." path (Sema.errors_to_string es);
          exit 2)
  | exception Parser.Error (msg, pos) ->
      Fmt.epr "%s:%a: syntax error: %s@." path Ast.pp_pos pos msg;
      exit 2
  | exception Lexer.Error (msg, pos) ->
      Fmt.epr "%s:%a: lexical error: %s@." path Ast.pp_pos pos msg;
      exit 2

type meth = FS | FI | Ref | CC | VC | JF of Jump_functions.variant

let meth_conv =
  let parse = function
    | "fs" | "flow-sensitive" -> Ok FS
    | "fi" | "flow-insensitive" -> Ok FI
    | "ref" | "iterative" -> Ok Ref
    | "cc" | "copy-constant" -> Ok CC
    | "vc" | "value-context" -> Ok VC
    | "literal" -> Ok (JF Jump_functions.Literal)
    | "intra" -> Ok (JF Jump_functions.Intra)
    | "pass" | "pass-through" -> Ok (JF Jump_functions.Pass_through)
    | "poly" | "polynomial" -> Ok (JF Jump_functions.Polynomial)
    | s -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  Arg.conv (parse, fun ppf m ->
      Fmt.string ppf
        (match m with
        | FS -> "fs"
        | FI -> "fi"
        | Ref -> "ref"
        | CC -> "cc"
        | VC -> "vc"
        | JF v -> Jump_functions.variant_name v))

let solve_with ?jobs meth ctx =
  match meth with
  | FS -> Fs_icp.solve ?jobs ctx
  | FI -> Fi_icp.solve ctx
  | Ref -> Reference.solve ctx
  | CC -> Cc_icp.solve ?jobs ctx
  | VC -> Vc_icp.solve ?jobs ctx
  | JF v -> Jump_functions.solve ctx v

let file_arg =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc:"MiniFort source file")

let meth_arg =
  Arg.(value & opt meth_conv FS & info [ "method"; "m" ] ~docv:"METHOD"
         ~doc:"fs | fi | ref | cc | vc | literal | intra | pass | poly")

let no_floats_arg =
  Arg.(value & flag & info [ "no-floats" ]
         ~doc:"disable interprocedural propagation of floating-point constants")

(* Strict job counts: --jobs and FSICP_JOBS share Par.parse_jobs, so zero,
   negatives and garbage are loud errors rather than silent clamps. *)
let jobs_conv =
  let parse s =
    match Fsicp_par.Par.parse_jobs s with
    | Ok j -> Ok j
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  Arg.(value & opt (some jobs_conv) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"worker domains for parallel phases (default: FSICP_JOBS, \
               else all cores); results are identical for every N")

let resolve_jobs = function
  | Some j -> j
  | None -> (
      (* Par.default_jobs raises on a malformed FSICP_JOBS value; turn that
         into a clean CLI error rather than an uncaught-exception report. *)
      try Fsicp_par.Par.default_jobs ()
      with Invalid_argument msg ->
        Fmt.epr "fsicp: %s@." msg;
        exit 2)

(* -- analyze --------------------------------------------------------- *)

let analyze file meth no_floats jobs =
  let jobs = resolve_jobs jobs in
  let prog = read_program file in
  let ctx = Context.create ~floats:(not no_floats) ~jobs prog in
  let sol = solve_with ~jobs meth ctx in
  Fmt.pr "%a" Solution.pp sol;
  let cands =
    Metrics.candidates ctx ~fi:(Fi_icp.solve ctx)
      ~fs:(Fs_icp.solve ~jobs ctx) ~name:file
  in
  Fmt.pr "call sites: %d args, %d literal, %d FI-constant, %d FS-constant@."
    cands.Metrics.cd_args cands.Metrics.cd_imm cands.Metrics.cd_fi
    cands.Metrics.cd_fs

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"report interprocedural constants")
    Term.(const analyze $ file_arg $ meth_arg $ no_floats_arg $ jobs_arg)

(* -- pipeline --------------------------------------------------------- *)

let pipeline file jobs extended =
  let prog = read_program file in
  let d = Driver.run ~jobs:(resolve_jobs jobs) ~extended prog in
  Fmt.pr "%a" Driver.pp d;
  let counts name (sol : Solution.t) =
    Fmt.pr "%s: %d constant formals, %d constant globals@." name
      (List.length (Solution.constant_formals sol))
      (List.length (Solution.constant_globals sol))
  in
  counts "FI" d.Driver.fi;
  counts "FS" d.Driver.fs;
  Option.iter (counts "CC") d.Driver.cc;
  Option.iter (counts "VC") d.Driver.vc

let pipeline_cmd =
  Cmd.v (Cmd.info "pipeline" ~doc:"run the full Figure-2 pipeline")
    Term.(
      const pipeline $ file_arg $ jobs_arg
      $ Arg.(value & flag & info [ "extended" ]
               ~doc:"also run the beyond-the-paper copy-constant and \
                     value-context methods (phases 5c/5d)"))

(* -- run --------------------------------------------------------------- *)

let run_prog file =
  let prog = read_program file in
  match Fsicp_interp.Interp.run prog with
  | r ->
      List.iter (fun v -> Fmt.pr "%a@." Value.pp v) r.Fsicp_interp.Interp.prints
  | exception Fsicp_interp.Interp.Runtime_error msg ->
      Fmt.epr "runtime error: %s@." msg;
      exit 1
  | exception Fsicp_interp.Interp.Out_of_fuel ->
      Fmt.epr "out of fuel (program too long-running)@.";
      exit 1

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"interpret a MiniFort program")
    Term.(const run_prog $ file_arg)

(* -- dump --------------------------------------------------------------- *)

let dump file what =
  let prog = read_program file in
  match what with
  | "ast" -> Fmt.pr "%a" Pretty.pp_program prog
  | "cfg" ->
      List.iter
        (fun p -> Fmt.pr "%a@\n" Fsicp_cfg.Ir.pp_proc p)
        (Fsicp_cfg.Lower.lower_program prog)
  | "ssa" ->
      let ctx = Context.create prog in
      Array.iter
        (fun pid ->
          Fmt.pr "%a@\n" Fsicp_ssa.Ssa.pp_proc (Context.ssa_at ctx pid))
        ctx.Context.pcg.Fsicp_callgraph.Callgraph.nodes
  | "pcg" ->
      let pcg = Fsicp_callgraph.Callgraph.build prog in
      Fmt.pr "%a" Fsicp_callgraph.Callgraph.pp pcg
  | "modref" ->
      let ctx = Context.create prog in
      Fmt.pr "%a" Fsicp_ipa.Modref.pp ctx.Context.modref
  | "alias" ->
      let ctx = Context.create prog in
      Fmt.pr "%a" Fsicp_ipa.Alias.pp ctx.Context.aliases
  | w ->
      Fmt.epr "unknown --what %S (ast|cfg|ssa|pcg|modref|alias)@." w;
      exit 2

let dump_cmd =
  Cmd.v (Cmd.info "dump" ~doc:"print intermediate representations")
    Term.(
      const dump $ file_arg
      $ Arg.(value & opt string "ast" & info [ "what"; "w" ] ~docv:"WHAT"))

(* -- fold --------------------------------------------------------------- *)

let fold file meth no_floats jobs =
  let jobs = resolve_jobs jobs in
  let prog = read_program file in
  let ctx = Context.create ~floats:(not no_floats) ~jobs prog in
  let sol = solve_with ~jobs meth ctx in
  let folded = Fold.fold_program ctx sol in
  Fmt.pr "%a" Pretty.pp_program folded

let fold_cmd =
  Cmd.v
    (Cmd.info "fold" ~doc:"constant-fold the program using ICP results")
    Term.(const fold $ file_arg $ meth_arg $ no_floats_arg $ jobs_arg)

(* -- inline / clone ------------------------------------------------------ *)

let inline file max_body =
  let prog = read_program file in
  let ctx = Context.create prog in
  let prog', n = Inline.inline_program ctx ~max_body () in
  Fmt.epr "inlined %d call(s)@." n;
  Fmt.pr "%a" Pretty.pp_program prog'

let inline_cmd =
  Cmd.v
    (Cmd.info "inline" ~doc:"inline small non-recursive procedures")
    Term.(
      const inline $ file_arg
      $ Arg.(value & opt int 12 & info [ "max-body" ] ~docv:"N"
               ~doc:"maximum callee size in statements"))

let clone file =
  let prog = read_program file in
  let ctx = Context.create prog in
  let fs = Fs_icp.solve ctx in
  let prog', n = Clone.clone_by_constants ctx ~fs () in
  Fmt.epr "created %d clone(s)@." n;
  Fmt.pr "%a" Pretty.pp_program prog'

let clone_cmd =
  Cmd.v
    (Cmd.info "clone" ~doc:"clone procedures per constant argument signature")
    Term.(const clone $ file_arg)

(* -- tables ------------------------------------------------------------- *)

let tables table =
  let all = table = 0 in
  if all || table = 1 then begin
    let t, _ =
      Fsicp_harness.Harness.candidates_table
        ~title:"Table 1: interprocedural call site constant candidates, measured (paper)"
        Spec.suite
    in
    Report.print t;
    print_newline ()
  end;
  if all || table = 2 then begin
    let _, runs =
      Fsicp_harness.Harness.candidates_table ~title:"" Spec.suite
    in
    Report.print
      (Fsicp_harness.Harness.propagated_table
         ~title:"Table 2: interprocedural propagated constants, measured (paper)"
         runs);
    print_newline ()
  end;
  if all || table = 3 then begin
    let t, _ =
      Fsicp_harness.Harness.candidates_table ~floats:false
        ~title:"Table 3: call site candidates, first-release subset, no floats"
        Spec.first_release
    in
    Report.print t;
    print_newline ()
  end;
  if all || table = 4 then begin
    let _, runs =
      Fsicp_harness.Harness.candidates_table ~floats:false ~title:""
        Spec.first_release
    in
    Report.print
      (Fsicp_harness.Harness.propagated_table
         ~title:"Table 4: propagated constants, first-release subset, no floats"
         runs);
    print_newline ()
  end;
  if all || table = 5 then begin
    let _, runs =
      Fsicp_harness.Harness.candidates_table ~floats:false ~title:""
        Spec.first_release
    in
    Report.print
      (Fsicp_harness.Harness.substitutions_table
         ~title:"Table 5: intraprocedural substitutions, measured (paper)"
         runs);
    print_newline ()
  end;
  if all || table = 6 then begin
    Report.print (Fsicp_harness.Harness.extended_gains_table ());
    print_newline ()
  end

let tables_cmd =
  Cmd.v
    (Cmd.info "tables" ~doc:"print the paper's tables (measured vs paper)")
    Term.(
      const tables
      $ Arg.(value & opt int 0 & info [ "table"; "t" ] ~docv:"N"
               ~doc:"1..5, 6 = beyond-the-paper gains; 0 = all"))

(* -- generate ------------------------------------------------------------ *)

let generate seed procs back =
  let profile =
    {
      (Generator.small_profile seed) with
      Generator.g_procs = procs;
      g_back_edge_prob = back;
    }
  in
  Fmt.pr "%a" Pretty.pp_program (Generator.generate profile)

let generate_cmd =
  Cmd.v (Cmd.info "generate" ~doc:"emit a synthetic MiniFort program")
    Term.(
      const generate
      $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N")
      $ Arg.(value & opt int 8 & info [ "procs" ] ~docv:"P")
      $ Arg.(value & opt float 0.0 & info [ "back" ] ~docv:"B"))

(* -- gen ----------------------------------------------------------------- *)

(* Strict scale-corpus arguments: like --jobs, the size and seed are parsed
   from strings so garbage is a clean [fsicp: ...] + exit 2, never an
   uncaught exception or a silent clamp. *)
let gen family procs seed out stats_only solve_check jobs =
  let fail msg =
    Fmt.epr "fsicp: %s@." msg;
    exit 2
  in
  let unwrap = function Ok v -> v | Error msg -> fail msg in
  let family = unwrap (Scale.family_of_string family) in
  let procs = unwrap (Scale.parse_procs procs) in
  let seed = unwrap (Scale.parse_seed seed) in
  let spec = { Scale.sp_family = family; sp_procs = procs; sp_seed = seed } in
  let t0 = Unix.gettimeofday () in
  let prog = Scale.generate spec in
  let gen_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let print_stats () =
    List.iter (fun (k, v) -> Fmt.pr "%-12s %d@." k v) (Scale.stats prog);
    Fmt.pr "%-12s %s@." "digest" (Scale.digest prog);
    Fmt.epr "gen: built %s/%d procedures in %.1f ms@."
      (Scale.family_to_string family) procs gen_ms
  in
  (match out with
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        fail (Printf.sprintf "output path %s exists and is not a directory" dir);
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%d-s%d.mf" (Scale.family_to_string family)
             procs seed)
      in
      let oc = open_out_bin path in
      output_string oc (Pretty.program_to_string prog);
      close_out oc;
      Fmt.pr "%s@." path
  | None -> if not solve_check then print_stats ());
  if stats_only && out <> None then print_stats ();
  if solve_check then begin
    let jobs = resolve_jobs jobs in
    (* Four independent solves of the same corpus — eager and streaming
       contexts, sequential and parallel — must agree to the byte on the
       canonical solution digest.  [top_heap_words] is process-monotonic,
       so the streaming runs go first to leave their (smaller) footprints
       observable. *)
    let solve_digest ~label ~jobs mk_ctx =
      Gc.compact ();
      let t = Unix.gettimeofday () in
      let ctx = mk_ctx () in
      let sol = Fs_icp.solve ~jobs ctx in
      let ms = (Unix.gettimeofday () -. t) *. 1000. in
      Fmt.pr "solve %s jobs=%d: %.1f ms (top_heap=%dw)@." label jobs ms
        (Gc.stat ()).Gc.top_heap_words;
      (label, jobs, Solution.digest sol)
    in
    let s1 =
      solve_digest ~label:"streaming" ~jobs:1 (fun () ->
          Context.create_streaming prog)
    in
    let sj =
      solve_digest ~label:"streaming" ~jobs (fun () ->
          Context.create_streaming prog)
    in
    let e1 =
      solve_digest ~label:"eager" ~jobs:1 (fun () -> Context.create ~jobs:1 prog)
    in
    let ej =
      solve_digest ~label:"eager" ~jobs (fun () -> Context.create ~jobs prog)
    in
    let runs = [ s1; sj; e1; ej ] in
    let _, _, ref_digest = e1 in
    let bad =
      List.filter (fun (_, _, d) -> not (String.equal d ref_digest)) runs
    in
    if bad = [] then Fmt.pr "digests identical@."
    else begin
      List.iter
        (fun (label, j, _) ->
          Fmt.epr "fsicp: digest mismatch (%s jobs=%d vs eager jobs=1)@."
            label j)
        bad;
      exit 1
    end
  end

let gen_cmd =
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "build a size-parametric synthetic corpus (chain | fanout | common \
          | recursion | mixed) directly as an AST; write it, print its \
          shape statistics, or solve it at two job counts and compare \
          solution digests")
    Term.(
      const gen
      $ Arg.(required
             & pos 0 (some string) None
             & info [] ~docv:"FAMILY"
                 ~doc:"chain | fanout | common | recursion | mixed")
      $ Arg.(value & opt string "10000" & info [ "procs" ] ~docv:"N"
               ~doc:"total procedures including main (2..2000000)")
      $ Arg.(value & opt string "1" & info [ "seed" ] ~docv:"S")
      $ Arg.(value & opt (some string) None
             & info [ "o"; "out" ] ~docv:"DIR"
                 ~doc:"write the corpus as MiniFort text under $(docv)")
      $ Arg.(value & flag
             & info [ "stats-only" ]
                 ~doc:"print shape statistics and the corpus digest even \
                       when also writing with $(b,-o)")
      $ Arg.(value & flag
             & info [ "solve-check" ]
                 ~doc:"solve the corpus flow-sensitively with eager and \
                       streaming contexts at jobs 1 and at --jobs and \
                       require byte-identical solution digests (exit 1 on \
                       mismatch)")
      $ jobs_arg)

(* -- trace --------------------------------------------------------------- *)

module Trace = Fsicp_trace.Trace

let trace_pipeline file jobs out wall =
  let jobs = resolve_jobs jobs in
  let prog = read_program file in
  Trace.reset ();
  Trace.set_enabled true;
  let d = Driver.run ~jobs prog in
  Trace.set_enabled false;
  Trace.write_chrome_json ~mode:(if wall then Trace.Wall else Trace.Logical) out;
  (* Counters to stdout (the deterministic surface); the timing summary to
     stderr, where wall-clock noise belongs. *)
  print_string (Trace.counters_table ~all:wall ());
  Fmt.epr "%a" Driver.pp d;
  Fmt.epr "trace: %s written to %s (open in Perfetto / chrome://tracing)@."
    (if wall then "wall-clock profile" else "canonical trace")
    out

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "run the Figure-2 pipeline with structured tracing and write \
          Chrome trace_event JSON plus a counters table; the default \
          canonical trace is byte-deterministic at a fixed --jobs")
    Term.(
      const trace_pipeline $ file_arg $ jobs_arg
      $ Arg.(value & opt string "trace.json"
             & info [ "trace-out"; "o" ] ~docv:"FILE"
                 ~doc:"output path for the trace JSON")
      $ Arg.(value & flag & info [ "wall" ]
               ~doc:
                 "emit real timestamps on per-domain tracks (a profile, \
                  not deterministic) instead of the canonical logical \
                  trace"))

(* -- verify -------------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let verify file meth no_floats jobs solver dump_vc transform fuel =
  let module V = Fsicp_verify.Verify in
  let jobs = resolve_jobs jobs in
  let prog = read_program file in
  let ctx = Context.create ~floats:(not no_floats) ~jobs prog in
  let sol = solve_with ~jobs meth ctx in
  let backend =
    match solver with
    | "symbolic" -> V.Symbolic
    | s -> V.Z3 s (* "z3", or any solver command taking an .smt2 path *)
  in
  let transforms =
    match transform with
    | None -> V.transform_names
    | Some t when List.mem t V.transform_names -> [ t ]
    | Some t ->
        Fmt.epr "fsicp verify: unknown transform %S (expected one of %s)@." t
          (String.concat ", " V.transform_names);
        exit 2
  in
  let proved = ref 0 and refuted = ref 0 and inconclusive = ref 0 in
  List.iter
    (fun tr ->
      let trans = V.apply_transform ctx ~solution:sol tr in
      let vcs = V.vcs ~fuel ~backend ctx ~solution:sol ~transform:tr ~trans in
      List.iter
        (fun vc ->
          (match vc.V.vc_verdict with
          | V.Proved -> incr proved
          | V.Refuted _ -> incr refuted
          | V.Inconclusive _ -> incr inconclusive);
          Fmt.pr "%a@." V.pp_vc vc;
          (match vc.V.vc_verdict with
          | V.Proved -> ()
          | v -> Fmt.pr "        %a@." V.pp_verdict v);
          Option.iter
            (fun dir ->
              mkdir_p dir;
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s.%s.smt2" tr vc.V.vc_proc)
              in
              let oc = open_out path in
              output_string oc (V.render vc);
              close_out oc)
            dump_vc)
        vcs)
    transforms;
  Fmt.pr "verify: %d proved, %d inconclusive, %d refuted@." !proved
    !inconclusive !refuted;
  if !refuted > 0 then exit 1

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "translation validation: emit and discharge a verification \
          condition for every procedure the transformation pipeline \
          (insert/fold/inline/clone) modified; exits nonzero iff some VC is \
          refuted with an interpreter-confirmed counterexample")
    Term.(
      const verify $ file_arg $ meth_arg $ no_floats_arg $ jobs_arg
      $ Arg.(value & opt string "symbolic"
             & info [ "solver" ] ~docv:"S"
                 ~doc:"symbolic (built-in, no external dependency) or z3 \
                       (or any solver command accepting an .smt2 file); \
                       external answers are trusted only in the exact \
                       integer encoding")
      $ Arg.(value & opt (some string) None
             & info [ "dump-vc" ] ~docv:"DIR"
                 ~doc:"write each VC as SMT-LIB2 to \
                       $(docv)/TRANSFORM.PROC.smt2")
      $ Arg.(value & opt (some string) None
             & info [ "transform" ] ~docv:"T"
                 ~doc:"verify only this transformation \
                       (insert|fold|inline|clone)")
      $ Arg.(value & opt int 20_000
             & info [ "fuel" ] ~docv:"F"
                 ~doc:"symbolic step budget per VC"))

(* -- fuzz ---------------------------------------------------------------- *)

let fuzz seeds start fuel jobs out no_shrink trace_out edits vc =
  Option.iter
    (fun _ ->
      Trace.reset ();
      Trace.set_enabled true)
    trace_out;
  (* Per-seed check spans and outcome counters; wall mode, since a fuzzing
     campaign is a profile of real work, not a canonical artifact. *)
  let flush_trace () =
    Option.iter
      (fun path ->
        Trace.set_enabled false;
        Trace.write_chrome_json ~mode:Trace.Wall path;
        Fmt.epr "fuzz: trace written to %s@." path)
      trace_out
  in
  let module O = Fsicp_oracle.Oracle in
  let module S = Fsicp_oracle.Shrink in
  let jobs = resolve_jobs jobs in
  let last = start + seeds - 1 in
  let failures = ref 0 in
  for seed = start to last do
    if (seed - start) mod 50 = 0 then
      Fmt.epr "fuzz: seed %d of %d..%d (%d failures so far)@." seed start last
        !failures;
    if edits > 0 then begin
      (* Edit-sequence mode: drive the incremental engines instead of the
         one-shot differential checks.  Sequences are not shrinkable — the
         failing state is the path, not the program — so just report. *)
      match O.check_edit_sequence ~jobs ~edits seed with
      | Ok () -> ()
      | Error failure ->
          incr failures;
          Fmt.epr "fuzz: edit seed %d FAILED — %a@." seed O.pp_failure failure
    end
    else
    let check_full p =
      match O.check_program ~fuel ~jobs p with
      | Error _ as e -> e
      | Ok () -> if vc then O.check_transform_vc p else Ok ()
    in
    let seed_result =
      match O.check_seed ~fuel ~jobs seed with
      | Error _ as e -> e
      | Ok () ->
          if vc then O.check_transform_vc (O.program_of_seed seed) else Ok ()
    in
    match seed_result with
    | Ok () -> ()
    | Error failure ->
        incr failures;
        Fmt.epr "fuzz: seed %d FAILED — %a@." seed O.pp_failure failure;
        let prog = O.program_of_seed seed in
        let prog, failure =
          if no_shrink then (prog, failure)
          else begin
            (* Shrink against the *same* check so the reproducer does not
               drift onto an unrelated bug mid-reduction. *)
            let still_fails p =
              match check_full p with
              | Error f -> String.equal f.O.f_check failure.O.f_check
              | Ok () -> false
            in
            let small = S.shrink ~still_fails prog in
            Fmt.epr "fuzz: shrunk seed %d from %d to %d statements@." seed
              (S.stmt_count prog) (S.stmt_count small);
            match check_full small with
            | Error f -> (small, f)
            | Ok () -> (prog, failure)
          end
        in
        let path =
          O.write_reproducer ~dir:out
            ~name:(Printf.sprintf "seed-%d" seed)
            ~failure ~seed prog
        in
        Fmt.epr "fuzz: reproducer written to %s@." path
  done;
  flush_trace ();
  if !failures = 0 then Fmt.pr "fuzz: %d seeds OK@." seeds
  else begin
    Fmt.pr "fuzz: %d of %d seeds failed@." !failures seeds;
    exit 1
  end

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "generate programs and run the differential soundness oracle on \
          each; on failure, shrink to a minimal reproducer")
    Term.(
      const fuzz
      $ Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N"
               ~doc:"number of seeds to check")
      $ Arg.(value & opt int 0 & info [ "start" ] ~docv:"S" ~doc:"first seed")
      $ Arg.(value
             & opt int Fsicp_oracle.Oracle.default_fuel
             & info [ "fuel" ] ~docv:"F" ~doc:"interpreter step budget")
      $ jobs_arg
      $ Arg.(value
             & opt string "testdata/regressions"
             & info [ "out" ] ~docv:"DIR" ~doc:"reproducer output directory")
      $ Arg.(value & flag & info [ "no-shrink" ]
               ~doc:"write the unshrunk failing program")
      $ Arg.(value & opt (some string) None
             & info [ "trace" ] ~docv:"FILE"
                 ~doc:"record per-seed oracle spans and counters; write \
                       wall-clock Chrome trace JSON to $(docv)")
      $ Arg.(value & opt int 0
             & info [ "edits" ] ~docv:"K"
                 ~doc:"when positive, run the edit-sequence oracle instead: \
                       per seed, apply $(docv) random procedure edits to \
                       live incremental engines at jobs 1 and N and check \
                       every solution is byte-identical to a from-scratch \
                       solve")
      $ Arg.(value & flag
             & info [ "vc" ]
                 ~doc:"additionally run translation validation on every \
                       seed (and while shrinking): any transformation VC \
                       refuted with an interpreter-confirmed \
                       counterexample is a failure (check vc:TRANSFORM)"))

(* -- serve / client ------------------------------------------------------ *)

let version = "0.9.0"

let socket_arg =
  Arg.(required
       & opt (some string) None
       & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve socket jobs program =
  (* Resolve eagerly so a malformed FSICP_JOBS kills the daemon at startup,
     not a later request. *)
  let jobs = resolve_jobs jobs in
  let preload = Option.map read_program program in
  match
    Fsicp_serve.Serve.run ~jobs ?preload
      ~on_ready:(fun () -> Fmt.epr "fsicp serve: listening on %s@." socket)
      ~version ~socket ()
  with
  | () -> ()
  | exception Failure msg ->
      Fmt.epr "fsicp serve: %s@." msg;
      exit 1
  | exception Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "fsicp serve: %s: %s(%s)@." (Unix.error_message e) fn arg;
      exit 1

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the analysis daemon: accept length-prefixed JSON request \
          frames on a Unix-domain socket against one long-lived \
          incremental engine (load / query-entry / query-call-site / \
          edit-proc / solve / stats / digest / shutdown)")
    Term.(
      const serve $ socket_arg $ jobs_arg
      $ Arg.(value & opt (some non_dir_file) None
             & info [ "program"; "p" ] ~docv:"FILE"
                 ~doc:"MiniFort source to load and analyse before \
                       accepting connections"))

let client socket batch extract reqs =
  let module Serve = Fsicp_serve.Serve in
  let module Json = Fsicp_serve.Json in
  let raw =
    match reqs with
    | _ :: _ -> reqs
    | [] ->
        (* No positional requests: read one JSON document per stdin line. *)
        let rec loop acc =
          match input_line stdin with
          | line ->
              loop (if String.trim line = "" then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop []
  in
  let docs =
    List.map
      (fun s ->
        match Json.of_string s with
        | Ok d -> d
        | Error m ->
            Fmt.epr "fsicp client: invalid request JSON: %s@." m;
            exit 2)
      raw
  in
  if docs = [] then begin
    Fmt.epr "fsicp client: no requests (pass JSON arguments or stdin lines)@.";
    exit 2
  end;
  let fd =
    match Serve.connect ~socket with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "fsicp client: cannot connect to %s: %s@." socket
          (Unix.error_message e);
        exit 1
  in
  let failed = ref false in
  let print_response r =
    (match Json.member "ok" r with
    | Some (Json.Bool false) -> failed := true
    | _ -> ());
    match extract with
    | None -> print_endline (Json.to_string r)
    | Some field -> (
        match Json.member field r with
        | Some (Json.Str s) ->
            (* Raw string fields (digests, dumps) print verbatim so shell
               pipelines can diff them without a JSON decoder. *)
            print_string s;
            if s = "" || s.[String.length s - 1] <> '\n' then print_newline ()
        | Some v -> print_endline (Json.to_string v)
        | None ->
            failed := true;
            Fmt.epr "fsicp client: response has no field %S@." field)
  in
  (Fun.protect
     ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
   match
     if batch then
       match Serve.roundtrip fd (Json.Arr docs) with
       | Json.Arr rs -> List.iter print_response rs
       | r -> print_response r
     else List.iter (fun d -> print_response (Serve.roundtrip fd d)) docs
   with
   | () -> ()
   | exception Failure msg ->
       Fmt.epr "fsicp client: %s@." msg;
       exit 1);
  if !failed then exit 1

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "send JSON requests (positional arguments, or one per stdin line) \
          to a running fsicp serve daemon and print each response; exits \
          nonzero if any response reports ok:false")
    Term.(
      const client $ socket_arg
      $ Arg.(value & flag
             & info [ "batch" ]
                 ~doc:"send all requests as one batch frame (a JSON array) \
                       instead of one frame each")
      $ Arg.(value & opt (some string) None
             & info [ "extract" ] ~docv:"FIELD"
                 ~doc:"print only $(docv) from each response; string \
                       fields print raw (handy for digest/dump diffing)")
      $ Arg.(value & pos_all string [] & info [] ~docv:"REQUEST"))

(* ------------------------------------------------------------------------ *)

let () =
  let doc = "flow-sensitive interprocedural constant propagation (PLDI 1995)" in
  let subcommands =
    [
      analyze_cmd; pipeline_cmd; run_cmd; dump_cmd; fold_cmd;
      inline_cmd; clone_cmd; verify_cmd; tables_cmd; generate_cmd; gen_cmd;
      fuzz_cmd; trace_cmd; serve_cmd; client_cmd;
    ]
  in
  (* Bare [fsicp]: one usage line naming every subcommand, then exit 2. *)
  let default =
    Term.(
      const (fun () ->
          Fmt.pr "usage: fsicp {%s} [ARGS...]  (fsicp CMD --help for details)@."
            (String.concat "|"
               (List.map (fun c -> Cmd.name c) subcommands));
          Stdlib.exit 2)
      $ const ())
  in
  exit
    (Cmd.eval (Cmd.group ~default (Cmd.info "fsicp" ~version ~doc) subcommands))
