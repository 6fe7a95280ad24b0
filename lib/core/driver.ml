(** The full compilation-model pipeline (paper Figure 2), with per-phase
    wall-clock timings:

    {v
    1. Collect IPA inputs
    2. Construct the Program Call Graph
    3. Perform Interprocedural Aliasing
    4. Compute Interprocedural Mod and Ref
    5. Perform Interprocedural Constant Propagation  (FI, then FS)
    6. Perform Reverse Topological Traversal          (USE, transform)
    v}

    The timings back the paper's cost claim: "The flow-sensitive method
    increases the analysis phase of the compilation by 50% over the
    flow-insensitive method" — compare [fi_seconds] against
    [fs_seconds].

    Independent phases run concurrently when [jobs > 1]: steps 1 and 2
    need only the program, so the IPA collection and the PCG construction
    overlap; lowering fans out per procedure; and the flow-sensitive ICP
    runs its PCG wavefront on the same domain budget.  Each phase is still
    timed individually (inside its own task), so the Figure-2 trace keeps
    one entry per phase regardless of [jobs]. *)

open Fsicp_lang
open Fsicp_ipa
open Fsicp_callgraph
open Fsicp_par
module Trace = Fsicp_trace.Trace

type timing = {
  t_phase : string;
  t_seconds : float;
  t_minor_words : float;  (** words allocated on the executing domain *)
  t_major_words : float;
}

type t = {
  ctx : Context.t;
  fi : Solution.t;
  fs : Solution.t;
  cc : Solution.t option;  (** copy-constant; [Some] iff run [~extended] *)
  vc : Solution.t option;  (** value-context; [Some] iff run [~extended] *)
  use : Use.t;
  timings : timing list;
}

(* Wall-clock plus the executing domain's allocation counters: in OCaml 5
   the counters are per-domain, so a phase running inside a [Par.both] task
   reports the allocation of that task's domain.  [Gc.quick_stat] only
   moves at minor-GC boundaries, so it reads 0 for a phase that fits in
   the minor heap.  [Gc.minor_words] is exact, and so is the major figure
   of [Gc.counters]; its minor figure is not (OCaml 5.1 undercounts the
   unfinished minor heap). *)
let alloc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

let time_it f =
  let minor0, major0 = alloc_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let minor1, major1 = alloc_words () in
  (r, (dt, minor1 -. minor0, major1 -. major0))

(** Run the complete pipeline on [jobs] domains (default
    {!Fsicp_par.Par.default_jobs}).  The program must be
    {!Sema.check}-clean; the analysis results are identical for every
    [jobs]. *)
let run ?(floats = true) ?jobs ?(extended = false) (prog : Ast.program) : t =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  (* One Figure-2 span per phase, named exactly like the timing rows.  The
     epoch advances only here on the orchestrating domain, between phases —
     a sequential point even when the phase bodies themselves fan out. *)
  let phase name f () =
    time_it (fun () -> Trace.span name f)
  in
  Trace.next_epoch ();
  (* Steps 1–2 are independent given the program: collect the IPA inputs
     while the PCG is being built. *)
  let (pcg, t_pcg), (summaries, t_sum) =
    Par.both ~jobs
      (phase "2:call-graph" (fun () -> Callgraph.build prog))
      (phase "1:ipa-collect" (fun () -> Summary.collect prog))
  in
  Trace.next_epoch ();
  let aliases, t_alias =
    phase "3:aliasing" (fun () -> Alias.compute summaries pcg) ()
  in
  Trace.next_epoch ();
  let modref, t_modref =
    phase "4:mod-ref" (fun () -> Modref.compute summaries aliases pcg) ()
  in
  Trace.next_epoch ();
  let lowered, t_lower =
    phase "lowering" (fun () -> Context.lower_all ~jobs prog pcg) ()
  in
  let ctx =
    {
      Context.prog;
      pcg;
      summaries;
      aliases;
      modref;
      floats;
      lowered = Fsicp_prog.Prog.Proc.Tbl.map (fun p -> Some p) lowered;
      alias_kills =
        Fsicp_prog.Prog.Proc.Tbl.map
          (fun k -> Some k)
          (Context.compute_alias_kills aliases summaries pcg lowered);
      ssa_cache = Fsicp_prog.Prog.tbl pcg.Callgraph.db None;
      epochs = Fsicp_prog.Prog.tbl pcg.Callgraph.db 0;
      edit_epoch = 0;
      stream = None;
    }
  in
  (* Step 5: interprocedural constant propagation.  The FS timing includes
     SSA construction and the one-per-procedure SCC runs, mirroring the
     paper's "analysis phase" accounting; the FI method needs neither. *)
  Trace.next_epoch ();
  let fi, t_fi = phase "5a:fi-icp" (fun () -> Fi_icp.solve ctx) () in
  Trace.next_epoch ();
  let fs, t_fs = phase "5b:fs-icp" (fun () -> Fs_icp.solve ~jobs ~fi ctx) () in
  (* Beyond-the-paper methods, opt-in so the default run keeps the paper's
     exact Figure-2 phase trace. *)
  let cc, vc, t_ext =
    if not extended then (None, None, [])
    else begin
      Trace.next_epoch ();
      let cc, t_cc = phase "5c:cc-icp" (fun () -> Cc_icp.solve ctx) () in
      Trace.next_epoch ();
      let vc, t_vc = phase "5d:vc-icp" (fun () -> Vc_icp.solve ctx) () in
      (Some cc, Some vc, [ ("5c:cc-icp", t_cc); ("5d:vc-icp", t_vc) ])
    end
  in
  (* Step 6: reverse topological traversal — USE computation here; the
     transformation itself is on demand ({!Transform}, {!Fold}). *)
  Trace.next_epoch ();
  let use, t_use = phase "6:use" (fun () -> Use.compute lowered modref pcg) () in
  let timings =
    List.map
      (fun (t_phase, (t_seconds, t_minor_words, t_major_words)) ->
        { t_phase; t_seconds; t_minor_words; t_major_words })
      ([
         ("2:call-graph", t_pcg);
         ("1:ipa-collect", t_sum);
         ("3:aliasing", t_alias);
         ("4:mod-ref", t_modref);
         ("lowering", t_lower);
         ("5a:fi-icp", t_fi);
         ("5b:fs-icp", t_fs);
       ]
      @ t_ext
      @ [ ("6:use", t_use) ])
  in
  { ctx; fi; fs; cc; vc; use; timings }

let timing_of t phase =
  List.find_opt (fun x -> String.equal x.t_phase phase) t.timings
  |> Option.map (fun x -> x.t_seconds)

let fi_seconds t = Option.value (timing_of t "5a:fi-icp") ~default:0.0
let fs_seconds t = Option.value (timing_of t "5b:fs-icp") ~default:0.0

let pp ppf t =
  Fmt.pf ppf "pipeline for program with %d reachable procedure(s):@\n"
    (Array.length t.ctx.Context.pcg.Callgraph.nodes);
  List.iter
    (fun { t_phase; t_seconds; t_minor_words; t_major_words } ->
      Fmt.pf ppf "  %-14s %8.3f ms  %10.1f kw minor  %8.1f kw major@\n"
        t_phase (1000.0 *. t_seconds) (t_minor_words /. 1e3)
        (t_major_words /. 1e3))
    t.timings;
  Fmt.pf ppf "  FS ICP performed %d SCC run(s) for %d procedure(s)@\n"
    t.fs.Solution.scc_runs
    (Array.length t.ctx.Context.pcg.Callgraph.nodes);
  let extended name = function
    | None -> ()
    | Some (sol : Solution.t) ->
        Fmt.pf ppf "  %s performed %d SCC run(s)@\n" name sol.Solution.scc_runs
  in
  extended "CC ICP" t.cc;
  extended "VC ICP" t.vc
