(** Experiment harness: regenerates every table and figure of the paper's
    evaluation section on the calibrated synthetic suite, printing measured
    values side by side with the paper's published ones ("measured (paper)").

    [fsicp tables] prints each of them (see EXPERIMENTS.md). *)

open Fsicp_core
open Fsicp_workloads
open Fsicp_report
open Fsicp_par

type run = {
  r_bench : Spec.benchmark;
  r_ctx : Context.t;
  r_fi : Solution.t;
  r_fs : Solution.t;
  r_candidates : Metrics.candidates_row;
  r_propagated : Metrics.propagated_row;
}

(** Analyse one benchmark (generate, build context, run both methods).
    [jobs] is threaded to the context build and the FS solve's SSA
    pre-build; the per-suite fan-out below parallelises across benchmarks
    instead and pins the inner analyses to one domain. *)
let run_benchmark ?(floats = true) ?jobs (b : Spec.benchmark) : run =
  let prog = Spec.program b in
  let ctx = Context.create ~floats ?jobs prog in
  let fi = Fi_icp.solve ctx in
  let fs = Fs_icp.solve ?jobs ~fi ctx in
  {
    r_bench = b;
    r_ctx = ctx;
    r_fi = fi;
    r_fs = fs;
    r_candidates = Metrics.candidates ctx ~fi ~fs ~name:b.Spec.b_name;
    r_propagated = Metrics.propagated ctx ~fi ~fs ~name:b.Spec.b_name;
  }

let cell measured paper =
  if paper < 0 then Printf.sprintf "%d (n/r)" measured
  else Printf.sprintf "%d (%d)" measured paper

(* Sum a paper column, skipping unreported entries. *)
let psum f rows = List.fold_left (fun acc r -> acc + max 0 (f r)) 0 rows

(** Table 1 (or Table 3 when given the first-release subset and
    [~floats:false]): interprocedural call-site constant candidates. *)
let candidates_table ?(floats = true) ~title (benchmarks : Spec.benchmark list)
    : Report.t * run list =
  (* Benchmarks are independent: fan out across the suite, one domain per
     benchmark, keeping each benchmark's own analyses sequential. *)
  let runs =
    Par.map_list ~jobs:(Par.default_jobs ())
      (run_benchmark ~floats ~jobs:1)
      benchmarks
  in
  let papers = List.map (fun r -> r.r_bench.Spec.b_paper) runs in
  let row (r : run) =
    let c = r.r_candidates and p = r.r_bench.Spec.b_paper in
    [
      c.Metrics.cd_program;
      cell c.Metrics.cd_args p.Spec.p_arg;
      cell c.Metrics.cd_imm p.Spec.p_imm;
      cell c.Metrics.cd_fi p.Spec.p_fi_args;
      cell c.Metrics.cd_fs p.Spec.p_fs_args;
      cell c.Metrics.cd_gl_fi p.Spec.p_gl_cand;
      cell c.Metrics.cd_gl_fs p.Spec.p_gl_fs_sites;
      cell c.Metrics.cd_gl_vis p.Spec.p_gl_vis;
    ]
  in
  let totals =
    let sum f = List.fold_left (fun acc r -> acc + f r.r_candidates) 0 runs in
    [
      "TOTAL";
      cell (sum (fun c -> c.Metrics.cd_args)) (psum (fun p -> p.Spec.p_arg) papers);
      cell (sum (fun c -> c.Metrics.cd_imm)) (psum (fun p -> p.Spec.p_imm) papers);
      cell (sum (fun c -> c.Metrics.cd_fi)) (psum (fun p -> p.Spec.p_fi_args) papers);
      cell (sum (fun c -> c.Metrics.cd_fs)) (psum (fun p -> p.Spec.p_fs_args) papers);
      cell (sum (fun c -> c.Metrics.cd_gl_fi)) (psum (fun p -> p.Spec.p_gl_cand) papers);
      cell (sum (fun c -> c.Metrics.cd_gl_fs)) (psum (fun p -> p.Spec.p_gl_fs_sites) papers);
      cell (sum (fun c -> c.Metrics.cd_gl_vis)) (psum (fun p -> p.Spec.p_gl_vis) papers);
    ]
  in
  ( Report.make ~title
      ~header:
        [ "PROGRAM"; "ARG"; "IMM"; "FI"; "FS"; "G.CAND"; "G.FS"; "G.VIS" ]
      (List.map row runs @ [ totals ]),
    runs )

(** Table 2 (or Table 4): interprocedurally propagated constants. *)
let propagated_table ~title (runs : run list) : Report.t =
  let papers = List.map (fun r -> r.r_bench.Spec.b_paper) runs in
  let row (r : run) =
    let m = r.r_propagated and p = r.r_bench.Spec.b_paper in
    [
      m.Metrics.pr_program;
      cell m.Metrics.pr_fp p.Spec.p_fp;
      cell m.Metrics.pr_fi p.Spec.p_fi_formals;
      cell m.Metrics.pr_fs p.Spec.p_fs_formals;
      cell m.Metrics.pr_procs p.Spec.p_procs;
      cell m.Metrics.pr_gl_fi p.Spec.p_gl_fi;
      cell m.Metrics.pr_gl_fs p.Spec.p_gl_fs;
    ]
  in
  let totals =
    let sum f = List.fold_left (fun acc r -> acc + f r.r_propagated) 0 runs in
    [
      "TOTAL";
      cell (sum (fun m -> m.Metrics.pr_fp)) (psum (fun p -> p.Spec.p_fp) papers);
      cell (sum (fun m -> m.Metrics.pr_fi)) (psum (fun p -> p.Spec.p_fi_formals) papers);
      cell (sum (fun m -> m.Metrics.pr_fs)) (psum (fun p -> p.Spec.p_fs_formals) papers);
      cell (sum (fun m -> m.Metrics.pr_procs)) (psum (fun p -> p.Spec.p_procs) papers);
      cell (sum (fun m -> m.Metrics.pr_gl_fi)) (psum (fun p -> p.Spec.p_gl_fi) papers);
      cell (sum (fun m -> m.Metrics.pr_gl_fs)) (psum (fun p -> p.Spec.p_gl_fs) papers);
    ]
  in
  Report.make ~title
    ~header:[ "PROGRAM"; "FP"; "FI"; "FS"; "PROCS"; "G.FI"; "G.FS" ]
    (List.map row runs @ [ totals ])

(** Table 5: intraprocedural substitutions (POLYNOMIAL vs FI vs FS), on the
    first-release subset with floats off.  The CC/VC columns are ours —
    the paper has no numbers for them, so they print as plain counts. *)
let substitutions_table ~title (runs : run list) : Report.t =
  let rows =
    List.map
      (fun r ->
        let m =
          Metrics.substitutions r.r_ctx ~fi:r.r_fi ~fs:r.r_fs
            ~name:r.r_bench.Spec.b_name ()
        in
        let p_poly, p_fi, p_fs =
          match List.assoc_opt m.Metrics.sb_program Spec.table5_paper with
          | Some t -> t
          | None -> (-1, -1, -1)
        in
        ( m,
          [
            m.Metrics.sb_program;
            cell m.Metrics.sb_poly p_poly;
            cell m.Metrics.sb_fi p_fi;
            cell m.Metrics.sb_fs p_fs;
            string_of_int m.Metrics.sb_cc;
            string_of_int m.Metrics.sb_vc;
          ] ))
      runs
  in
  let totals =
    let sum f = List.fold_left (fun acc (m, _) -> acc + f m) 0 rows in
    let papers = List.map snd Spec.table5_paper in
    [
      "TOTAL";
      cell (sum (fun m -> m.Metrics.sb_poly))
        (List.fold_left (fun a (x, _, _) -> a + x) 0 papers);
      cell (sum (fun m -> m.Metrics.sb_fi))
        (List.fold_left (fun a (_, x, _) -> a + x) 0 papers);
      cell (sum (fun m -> m.Metrics.sb_fs))
        (List.fold_left (fun a (_, _, x) -> a + x) 0 papers);
      string_of_int (sum (fun m -> m.Metrics.sb_cc));
      string_of_int (sum (fun m -> m.Metrics.sb_vc));
    ]
  in
  Report.make ~title
    ~header:[ "PROGRAM"; "POLYNOMIAL"; "FI"; "FS"; "CC"; "VC" ]
    (List.map snd rows @ [ totals ])

(** Beyond the paper: entry-constant gains of the copy-constant and
    value-context methods over FS on the calibrated suite.  The oracle
    hierarchy ([fs ⊑ cc], [fs ⊑ vc]) makes every delta ≥ 0. *)
let extended_gains_table ?(benchmarks = Spec.suite @ Spec.addendum) () :
    Report.t =
  let rows =
    Par.map_list ~jobs:(Par.default_jobs ())
      (fun (b : Spec.benchmark) ->
        let prog = Spec.program b in
        let ctx = Context.create ~jobs:1 prog in
        let fs = Fs_icp.solve ~jobs:1 ctx in
        Metrics.extended_gains ctx ~fs ~name:b.Spec.b_name ())
      benchmarks
  in
  let row (g : Metrics.gains_row) =
    let fs = g.Metrics.gn_fs_formals + g.Metrics.gn_fs_globals in
    let cc = g.Metrics.gn_cc_formals + g.Metrics.gn_cc_globals in
    let vc = g.Metrics.gn_vc_formals + g.Metrics.gn_vc_globals in
    [
      g.Metrics.gn_program;
      string_of_int fs;
      string_of_int cc;
      Printf.sprintf "+%d" (cc - fs);
      string_of_int vc;
      Printf.sprintf "+%d" (vc - fs);
    ]
  in
  let totals =
    let sum f = List.fold_left (fun acc g -> acc + f g) 0 rows in
    let fs =
      sum (fun g -> g.Metrics.gn_fs_formals + g.Metrics.gn_fs_globals)
    in
    let cc =
      sum (fun g -> g.Metrics.gn_cc_formals + g.Metrics.gn_cc_globals)
    in
    let vc =
      sum (fun g -> g.Metrics.gn_vc_formals + g.Metrics.gn_vc_globals)
    in
    [
      "TOTAL";
      string_of_int fs;
      string_of_int cc;
      Printf.sprintf "+%d" (cc - fs);
      string_of_int vc;
      Printf.sprintf "+%d" (vc - fs);
    ]
  in
  Report.make
    ~title:
      "Beyond the paper: entry constants (formals + globals) found by the \
       copy-constant and value-context methods vs FS"
    ~header:[ "PROGRAM"; "FS"; "CC"; "CC-GAIN"; "VC"; "VC-GAIN" ]
    (List.map row rows @ [ totals ])

(** Figure 1: per-method constant sets on the reconstruction. *)
let figure1_table () : Report.t =
  let ctx = Context.create Figure1.program in
  let rows = Metrics.figure1 ctx in
  let formal_name (proc, i) =
    (* In the Figure 1 program formals are f1..f5. *)
    let p = Fsicp_lang.Ast.find_proc_exn Figure1.program proc in
    List.nth p.Fsicp_lang.Ast.formals i
  in
  Report.make ~title:"Figure 1: formal parameter constants per method"
    ~header:[ "METHOD"; "FORMAL PARAMETER CONSTANTS" ]
    (List.map
       (fun (r : Metrics.figure1_row) ->
         [
           r.Metrics.f1_method;
           String.concat ", "
             (List.sort compare (List.map formal_name r.Metrics.f1_constants));
         ])
       rows)

(** §3.2 back-edge-ratio experiment: sweep the generator's back-edge
    probability and report precision (FS constant formals) relative to the
    iterative reference and the FI floor. *)
let backedge_sweep ?(seeds = [ 7; 21; 35 ]) () : Report.t =
  let probs = [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  (* Every (probability, seed) cell is independent — including the
     expensive iterative-reference solve — so the whole sweep fans out at
     once, one domain per cell. *)
  let probe (prob, seed) =
    let profile =
      {
        (Generator.small_profile seed) with
        Generator.g_procs = 12;
        g_back_edge_prob = prob;
        g_w_imm = 2.0;
        g_w_local_const = 2.0;
        g_w_prune = 1.0;
        g_w_bot = 2.0;
      }
    in
    let prog = Generator.generate profile in
    let ctx = Context.create ~jobs:1 prog in
    let fi = Fi_icp.solve ctx in
    let fs = Fs_icp.solve ~jobs:1 ~fi ctx in
    let reference = Reference.solve ctx in
    let n sol = List.length (Solution.constant_formals sol) in
    let ratio = Fsicp_callgraph.Callgraph.back_edge_ratio ctx.Context.pcg in
    (prob, (ratio, n fi, n fs, n reference))
  in
  let cells =
    Par.map_list ~jobs:(Par.default_jobs ()) probe
      (List.concat_map (fun p -> List.map (fun s -> (p, s)) seeds) probs)
  in
  let row prob =
    let counts = List.filter_map
        (fun (p, c) -> if p = prob then Some c else None) cells
    in
    let avg f =
      List.fold_left (fun acc c -> acc +. f c) 0.0 counts
      /. float_of_int (List.length counts)
    in
    [
      Printf.sprintf "%.2f" prob;
      Printf.sprintf "%.2f" (avg (fun (r, _, _, _) -> r));
      Printf.sprintf "%.1f" (avg (fun (_, fi, _, _) -> float_of_int fi));
      Printf.sprintf "%.1f" (avg (fun (_, _, fs, _) -> float_of_int fs));
      Printf.sprintf "%.1f" (avg (fun (_, _, _, it) -> float_of_int it));
    ]
  in
  Report.make
    ~title:
      "Back-edge sweep (§3.2): FS precision degrades from iterative to FI \
       as the back-edge ratio grows"
    ~header:
      [ "BACK-PROB"; "EDGE-RATIO"; "FI-CONSTS"; "FS-CONSTS"; "ITER-CONSTS" ]
    (List.map row probs)

(** §4 float ablation: global and argument constants with and without
    floating-point propagation. *)
let floats_table () : Report.t =
  let both =
    Par.map_list ~jobs:(Par.default_jobs ())
      (fun b ->
        let w = run_benchmark ~floats:true ~jobs:1 b in
        let wo = run_benchmark ~floats:false ~jobs:1 b in
        (b, w, wo))
      Spec.suite
  in
  let sum f = List.fold_left (fun acc (_, w, wo) -> acc + f w wo) 0 both in
  let gl_with = sum (fun w _ -> w.r_propagated.Metrics.pr_gl_fs) in
  let gl_without = sum (fun _ wo -> wo.r_propagated.Metrics.pr_gl_fs) in
  let fs_args_with = sum (fun w _ -> w.r_candidates.Metrics.cd_fs) in
  let fs_args_without = sum (fun _ wo -> wo.r_candidates.Metrics.cd_fs) in
  let gl_fi_with = sum (fun w _ -> w.r_propagated.Metrics.pr_gl_fi) in
  let gl_fi_without = sum (fun _ wo -> wo.r_propagated.Metrics.pr_gl_fi) in
  Report.make
    ~title:
      "Floating-point ablation (§4): paper reports 105 of 175 FS global \
       constants and 12 FS arguments are floating point; all FI globals are"
    ~header:[ "METRIC"; "FLOATS ON"; "FLOATS OFF"; "FP-ONLY" ]
    [
      [
        "FS global constants (T2)";
        string_of_int gl_with;
        string_of_int gl_without;
        string_of_int (gl_with - gl_without);
      ];
      [
        "FI global constants (T2)";
        string_of_int gl_fi_with;
        string_of_int gl_fi_without;
        string_of_int (gl_fi_with - gl_fi_without);
      ];
      [
        "FS constant arguments (T1)";
        string_of_int fs_args_with;
        string_of_int fs_args_without;
        string_of_int (fs_args_with - fs_args_without);
      ];
    ]

(* The [q]-quantile of [xs] (nearest rank on the sorted values). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

(** §4 compile-time experiment: the whole analysis phase with the FI method
    vs with the FS method, as the medians of [reps] interleaved FI/FS pairs
    in process CPU time, with the interquartile range of the per-pair
    FS/FI ratio as its spread.  Interleaving gives both configurations the
    same machine state, and one unmeasured pair first warms the caches and
    the value pool; a mean of wall-clock runs of a few milliseconds swung
    a program's ratio from 1.28× to 0.73× between two runs.

    The paper's accounting: "Our prototype performs intraprocedural constant
    propagation by default" — i.e. both configurations pay for the IPA
    infrastructure (collection, PCG, aliasing, MOD/REF, lowering) and for
    one flow-sensitive {e intraprocedural} pass per procedure (the backward
    walk's default SCC, here the final substitution pass).  The FS method
    adds its own one-SCC-per-procedure forward traversal on top, which is
    what makes it "+50%, consistent over all of the benchmarks" rather than
    orders of magnitude. *)
let timing_table ?(reps = 11) () : Report.t =
  let cpu f =
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    Sys.time () -. t0
  in
  let rows =
    List.map
      (fun (b : Spec.benchmark) ->
        let prog = Spec.program b in
        (* FI configuration: infrastructure + FI ICP + default
           intraprocedural pass (SSA built here). *)
        let fi () =
          let ctx = Context.create prog in
          let fi = Fi_icp.solve ctx in
          Transform.substitutions ctx fi
        in
        (* FS configuration: the same, plus the interleaved flow-sensitive
           interprocedural traversal (SSA built there and reused by the
           final pass). *)
        let fs () =
          let ctx = Context.create prog in
          let fi = Fi_icp.solve ctx in
          let fs = Fs_icp.solve ~fi ctx in
          Transform.substitutions ctx fs
        in
        ignore (cpu fi, cpu fs);
        (* Alternate which configuration runs first in a pair. *)
        let pairs =
          List.init reps (fun i ->
              if i mod 2 = 0 then
                let t_fi = cpu fi in
                (t_fi, cpu fs)
              else
                let t_fs = cpu fs in
                (cpu fi, t_fs))
        in
        (b.Spec.b_name, pairs))
      Spec.suite
  in
  let ms t = Printf.sprintf "%.2f" (1000.0 *. t) in
  let row name pairs =
    let ratios = List.map (fun (fi, fs) -> fs /. fi) pairs in
    [
      name;
      ms (quantile 0.5 (List.map fst pairs));
      ms (quantile 0.5 (List.map snd pairs));
      Printf.sprintf "%.2fx" (quantile 0.5 ratios);
      Printf.sprintf "%.2f-%.2f" (quantile 0.25 ratios) (quantile 0.75 ratios);
    ]
  in
  (* Pair [i] of the whole suite: the sums of every program's pair [i]. *)
  let totals =
    List.init reps (fun i ->
        List.fold_left
          (fun (a, b) (_, pairs) ->
            let fi, fs = List.nth pairs i in
            (a +. fi, b +. fs))
          (0.0, 0.0) rows)
  in
  Report.make
    ~title:
      (Printf.sprintf
         "Analysis phase CPU time (§4), medians of %d interleaved FI/FS \
          pairs: paper reports FS ≈ FI + 50%%, consistent across \
          benchmarks; absolute times are ours"
         reps)
    ~header:[ "PROGRAM"; "FI (ms)"; "FS (ms)"; "FS/FI"; "FS/FI IQR" ]
    (List.map (fun (name, pairs) -> row name pairs) rows
    @ [ row "TOTAL" totals ])

(** Figure 2: run the pipeline on a benchmark and print the phase trace. *)
let figure2 () : string =
  let prog = Spec.program (List.nth Spec.suite 10 (* 093.NASA7 *)) in
  let d = Driver.run prog in
  Fmt.str "%a" Driver.pp d

(** RETURNS ablation: constants with and without the return-constants
    extension (kept off in the tables, as in the paper). *)
let returns_table () : Report.t =
  let rows =
    Par.map_list ~jobs:(Par.default_jobs ())
      (fun (b : Spec.benchmark) ->
        (* Give every benchmark a slice of out-parameters (callees that
           store a constant through a reference before returning) — the
           Fortran idiom the return-constants extension exists for; the
           calibrated table profiles keep it at zero. *)
        let profile =
          {
            b.Spec.b_profile with
            Generator.g_w_out = 0.10;
            g_w_bot = Stdlib.max 0.0 (b.Spec.b_profile.Generator.g_w_bot -. 0.10);
          }
        in
        let prog = Generator.generate profile in
        let ctx = Context.create ~jobs:1 prog in
        let fs = Fs_icp.solve ~jobs:1 ctx in
        let rc = Return_consts.compute ctx ~fs in
        let fs2 =
          Fs_icp.solve ~jobs:1
            ~call_def_value:
              (Return_consts.as_oracle rc ~censor:(Context.censor_w ctx))
            ctx
        in
        let _, subs_base = Transform.substitutions ctx fs in
        let n sol = List.length (Solution.constant_formals sol) in
        let ng sol = List.length (Solution.constant_globals sol) in
        [
          b.Spec.b_name;
          string_of_int (n fs);
          string_of_int (n fs2);
          string_of_int (ng fs);
          string_of_int (ng fs2);
          string_of_int subs_base;
          string_of_int rc.Return_consts.substitutions;
        ])
      Spec.suite
  in
  Report.make
    ~title:
      "Return-constants extension (§3.2, off in the paper's tables): \
       formal/global entry constants and substitutions without vs with"
    ~header:
      [ "PROGRAM"; "FP"; "FP+RET"; "GL"; "GL+RET"; "SUBS"; "SUBS+RET" ]
    rows
