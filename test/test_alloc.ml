(** Exact allocation and work counts.  The per-procedure layers must cost
    O(body), not O(body × globals), and printing and parsing cost a
    constant number of words per byte.  The solvers on the calibrated suite
    stay within a bound of committed word counts, an FS solve grows
    linearly in the corpus size and a deep [if] nest's build and solve
    linearly in its depth, an incremental edit costs a fraction of a
    from-scratch solve, SPICE's edit routes analyse committed numbers of
    procedures again, and tracing adds a bounded share of words.  At
    [jobs 1] everything runs on the calling domain, so the counts are
    deterministic: the same on every machine with the same OCaml
    version. *)

open Fsicp_core
module Par = Fsicp_par.Par
module Trace = Fsicp_trace.Trace
module Callgraph = Fsicp_callgraph.Callgraph
module Scale = Fsicp_workloads.Scale
module Spec = Fsicp_workloads.Spec

(* Two programs share their 500 procedure bodies; one declares the 8
   globals the bodies use, the other 800, of which the bodies name 18. *)

let n_procs = 500

(* A binary call tree of [n_procs] procedures under [main].  Every
   fiftieth procedure of the wide program also prints one of the globals
   past the first eight. *)
let source ~globals =
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  add "global %s;\n"
    (String.concat ", " (List.init globals (Printf.sprintf "g%d")));
  add "proc main() { call p0(1, 2); }\n";
  for k = 0 to n_procs - 1 do
    let g = k mod 8 and h = (k + 1) mod 8 in
    add "proc p%d(a, b) { x = a + g%d; " k g;
    add "if (x > 3) { b = x; } else { g%d = b; } " h;
    if (2 * k) + 1 < n_procs then add "call p%d(x, g%d); " ((2 * k) + 1) g;
    if (2 * k) + 2 < n_procs then add "call p%d(b, 4); " ((2 * k) + 2);
    if globals > 8 && k mod 50 = 0 then add "print g%d; " (8 + (k / 50));
    add "print b; }\n"
  done;
  Buffer.contents b

(* Words [f] allocates on every domain it runs on: minor-heap words, and
   words allocated directly in the major heap (large blocks). *)
let words f =
  let m0, j0 = Par.allocated_words () in
  let r = f () in
  let m1, j1 = Par.allocated_words () in
  (r, m1 -. m0, j1 -. j0)

(* Per-procedure minor and total words of the three layers. *)
let per_proc globals =
  let prog = Test_util.parse (source ~globals) in
  let n = float_of_int n_procs in
  let per (_, minor, major) = (minor /. n, (minor +. major) /. n) in
  let summary = words (fun () -> Fsicp_ipa.Summary.collect prog) in
  let ctx = Context.create ~jobs:1 prog in
  let lower =
    words (fun () -> Context.lower_all ~jobs:1 prog ctx.Context.pcg)
  in
  let fs = Fs_icp.solve ~jobs:1 ctx in
  let fold = words (fun () -> Fold.fold_program ctx fs) in
  [ ("ipa.summary", per summary); ("cfg.lower", per lower);
    ("core.fold", per fold) ]

let test_alloc_flat_in_globals () =
  let narrow = per_proc 8 and wide = per_proc 800 in
  let over =
    List.filter_map
      (fun ((layer, (m8, t8)), (_, (m800, t800))) ->
        if m800 > 1.5 *. m8 || t800 > 1.5 *. t8 then
          Some
            (Printf.sprintf
               "%s: %.0f minor / %.0f total words per procedure with 800 \
                globals, %.0f / %.0f with 8"
               layer m800 t800 m8 t8)
        else None)
      (List.combine narrow wide)
  in
  if over <> [] then
    Alcotest.failf "over the 1.5x bound:\n%s" (String.concat "\n" over)

(* Printing writes into one buffer: the words allocated per output byte
   stay a small constant (the buffer's doublings and the final copy), far
   below the ~17 a Format-box printer spends on the same corpus. *)
let test_pretty_words_per_byte () =
  let prog =
    Scale.generate
      { Scale.sp_family = Scale.Mixed; sp_procs = 2_000; sp_seed = 1 }
  in
  let text, minor, major =
    words (fun () -> Fsicp_lang.Pretty.program_to_string prog)
  in
  let per_byte = (minor +. major) /. float_of_int (String.length text) in
  if per_byte > 2.0 then
    Alcotest.failf "printing %d bytes allocated %.2f words per byte (bound 2)"
      (String.length text) per_byte

(* Lexing peeks each character several times, so a peek must not
   allocate.  Parsing this text reads about 5.4 words per byte; when the
   lexer's peek boxed each character in an option it read 11. *)
let test_parse_words_per_byte () =
  let text =
    Fsicp_lang.Pretty.program_to_string
      (Scale.generate
         { Scale.sp_family = Scale.Mixed; sp_procs = 2_000; sp_seed = 1 })
  in
  let _, minor, major =
    words (fun () -> Fsicp_lang.Parser.program_of_string text)
  in
  let per_byte = (minor +. major) /. float_of_int (String.length text) in
  if per_byte > 7.0 then
    Alcotest.failf "parsing %d bytes allocated %.2f words per byte (bound 7)"
      (String.length text) per_byte

let spec name =
  Spec.program (List.find (fun b -> b.Spec.b_name = name) Spec.suite)

(* The largest suite program. *)
let spice = lazy (spec "013.SPICE2G6")

(* Each row is a setup that returns one run.  FS on NASA7 and WAVE5
   rebuilds SSA per run; the SPICE solver rows keep SSA warm and drop the
   SCC memos, so every kernel run propagates.  The last two rows drive a
   serve engine on SPICE: a store-toggle rebuild and a CC read. *)
let rows () =
  let fs_cold prog () =
    let ctx = Context.create ~jobs:1 prog in
    fun () ->
      Context.reset_ssa_cache ctx;
      ignore (Fs_icp.solve ~jobs:1 ctx)
  in
  let warm solve () =
    let ctx = Context.create ~jobs:1 (Lazy.force spice) in
    Context.build_ssa ~jobs:1 ctx;
    fun () ->
      Context.reset_scc_memos ctx;
      ignore (solve ctx)
  in
  let verify () =
    let ctx = Context.create ~jobs:1 (Lazy.force spice) in
    let solution = Fs_icp.solve ~jobs:1 ctx in
    fun () -> ignore (Fsicp_verify.Verify.verify_program ctx ~solution)
  in
  (* The serve benchmark's store toggle: each run adds the store or takes
     it out again, and each is a rebuild that keeps the PCG. *)
  let toggle () =
    let prog = Lazy.force spice in
    let engine = Engine.create ~jobs:1 prog in
    let on = Test_util.toggle_edit prog in
    let off =
      List.find
        (fun (p : Fsicp_lang.Ast.proc) ->
          String.equal p.Fsicp_lang.Ast.pname on.Fsicp_lang.Ast.pname)
        prog.Fsicp_lang.Ast.procs
    in
    let next = ref on in
    fun () ->
      let p = !next in
      next := if p == on then off else on;
      ignore (Engine.edit_proc ~jobs:1 engine p)
  in
  (* SPICE's PCG has no back edge, so a CC read is the engine's FS
     solution relabelled: a record, where a CC solve allocates about
     236 000 words. *)
  let cc_read () =
    let engine = Engine.create ~jobs:1 (Lazy.force spice) in
    fun () -> ignore (Engine.cc_solution ~jobs:1 engine)
  in
  [
    ("FS on NASA7", fs_cold (spec "093.NASA7"), 54_545., 0.);
    ("FS on WAVE5", fs_cold (spec "039.WAVE5"), 444_585., 10_334.);
    ("FS on SPICE", warm (Fs_icp.solve ~jobs:1), 155_314., 536.);
    ("CC on SPICE", warm (Cc_icp.solve ~jobs:1), 256_974., 536.);
    ("VC on SPICE", warm (Vc_icp.solve ~jobs:1), 218_455., 536.);
    ("Verify.verify_program on SPICE", verify, 2_746_170., 0.);
    ("SPICE store-toggle rebuild", toggle, 114_579., 0.);
    ("engine CC read on SPICE", cc_read, 30., 0.);
  ]

(* A row may allocate 10% more minor words than its committed count, and
   25% more direct-major words where that count is at least 10 000 (below
   it, one large block more or less swings the ratio).  The first run
   grows scratch and caches, so the second is the one counted. *)
let test_solver_rows () =
  let over =
    List.filter_map
      (fun (name, setup, minor0, major0) ->
        let run = setup () in
        run ();
        let (), minor, major = words run in
        if minor > 1.10 *. minor0 || (major0 >= 10_000. && major > 1.25 *. major0)
        then
          Some
            (Printf.sprintf
               "%s: %.0f minor / %.0f direct-major words, committed %.0f / %.0f"
               name minor major minor0 major0)
        else None)
      (rows ())
  in
  if over <> [] then
    Alcotest.failf "over the 1.10x minor / 1.25x major bound:\n%s"
      (String.concat "\n" over)

(* φ placement is exact: the calibrated suite's semi-pruned SSA holds 264
   φs.  A change to placement must restate the count.  One extra φ per
   join block adds 155 of them, yet moves the row words above by under 2%:
   SSA construction is a small share of a solve. *)
let test_suite_phis () =
  let phis (b : Spec.benchmark) =
    let ctx = Context.create ~jobs:1 (Spec.program b) in
    Array.fold_left
      (fun n pid ->
        Array.fold_left
          (fun n (blk : Fsicp_ssa.Ssa.block) ->
            n + Array.length blk.Fsicp_ssa.Ssa.phis)
          n (Context.ssa_at ctx pid).Fsicp_ssa.Ssa.blocks)
      0 ctx.Context.pcg.Callgraph.nodes
  in
  let counts = List.map (fun b -> (b.Spec.b_name, phis b)) Spec.suite in
  let total = List.fold_left (fun n (_, c) -> n + c) 0 counts in
  if total <> 264 then
    Alcotest.failf "%d φs over the suite, committed 264:\n%s" total
      (String.concat "\n"
         (List.map (fun (name, c) -> Printf.sprintf "%s: %d" name c) counts))

(* [depth] nested one-armed [if]s around a print of [x]. *)
let nest depth =
  let b = Buffer.create (24 * depth) in
  Buffer.add_string b "proc main() { x = 1; ";
  for _ = 1 to depth do
    Buffer.add_string b "if (x == 1) { "
  done;
  Buffer.add_string b "print x; ";
  for _ = 1 to depth do
    Buffer.add_string b "} "
  done;
  Buffer.add_string b "}\n";
  Test_util.parse (Buffer.contents b)

(* A deep [if] nest costs O(depth): no condition temporary gets a φ, and
   the words of a context build plus FS solve grow at most 4.4x from
   depth 1 000 to 4 000.  Minimal φ placement (a φ per enclosing join for
   every temporary) and a lowering that walks its finished-block list on
   each patch are both quadratic there. *)
let test_deep_nesting () =
  let run depth =
    let prog = nest depth in
    let ctx, minor, major =
      words (fun () ->
          let ctx = Context.create ~jobs:1 prog in
          ignore (Fs_icp.solve ~jobs:1 ctx);
          ctx)
    in
    let phis =
      Array.fold_left
        (fun n (blk : Fsicp_ssa.Ssa.block) ->
          n + Array.length blk.Fsicp_ssa.Ssa.phis)
        0 (Context.ssa ctx "main").Fsicp_ssa.Ssa.blocks
    in
    (phis, minor +. major)
  in
  let phis1, words1 = run 1_000 and phis4, words4 = run 4_000 in
  if phis1 <> 0 || phis4 <> 0 then
    Alcotest.failf "%d and %d φs at depths 1 000 and 4 000, committed 0"
      phis1 phis4;
  let ratio = words4 /. words1 in
  if ratio > 4.4 then
    Alcotest.failf
      "depth 4 000 allocated %.0f words, %.2fx the %.0f of depth 1 000 \
       (bound 4.4x)"
      words4 ratio words1

(* OLS slope of ln y against ln x. *)
let exponent pts =
  let pts = List.map (fun (x, y) -> (log x, log y)) pts in
  let n = float_of_int (List.length pts) in
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 pts in
  let sx = sum fst and sy = sum snd in
  let sxx = sum (fun (x, _) -> x *. x) and sxy = sum (fun (x, y) -> x *. y) in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

(* [f ()]'s total words and the SCC blocks it visits. *)
let work f =
  let v0 = Trace.counter_total "scc.block_visits" in
  let (), minor, major = words f in
  (minor +. major, float_of_int (Trace.counter_total "scc.block_visits" - v0))

(* Context build plus FS solve over Scale corpora from 1 000 to 8 000
   procedures, eager and streaming, at [jobs] 1 and 2: both the words and
   the SCC block visits must grow at most as procs^1.15.  At [jobs 2] the
   corpora past [Par.cutoff] lower and build SSA on two domains. *)
let test_scale_exponent () =
  let corpora =
    List.map
      (fun procs ->
        ( float_of_int procs,
          Scale.generate
            { Scale.sp_family = Scale.Mixed; sp_procs = procs; sp_seed = 1 } ))
      [ 1_000; 2_000; 4_000; 8_000 ]
  in
  let over = ref [] in
  List.iter
    (fun (mode, jobs) ->
      let pts =
        List.map
          (fun (procs, prog) ->
            let w, v =
              work (fun () ->
                  let ctx =
                    if mode = "streaming" then Context.create_streaming prog
                    else Context.create ~jobs prog
                  in
                  ignore (Fs_icp.solve ~jobs ctx))
            in
            (procs, w, v))
          corpora
      in
      let check what e =
        if e > 1.15 then
          over :=
            Printf.sprintf "%s jobs %d: %s grow as procs^%.3f" mode jobs what e
            :: !over
      in
      check "words" (exponent (List.map (fun (p, w, _) -> (p, w)) pts));
      check "block visits" (exponent (List.map (fun (p, _, v) -> (p, v)) pts)))
    [ ("eager", 1); ("streaming", 1); ("eager", 2); ("streaming", 2) ];
  if !over <> [] then
    Alcotest.failf "over the procs^1.15 bound:\n%s"
      (String.concat "\n" (List.rev !over))

(* The procedure with the median-sized downstream cone: neither a leaf
   (near-empty dirty region) nor an entry (everything dirty). *)
let median_cone_proc prog =
  let pcg = Callgraph.build prog in
  let sized =
    Array.map
      (fun pid -> (Array.length (Callgraph.cone pcg ~seeds:[ pid ]), pid))
      pcg.Callgraph.nodes
  in
  Array.sort
    (fun (a, p) (b, q) ->
      match Int.compare a b with
      | 0 -> Fsicp_prog.Prog.Proc.compare p q
      | c -> c)
    sized;
  Callgraph.proc_ast pcg (snd sized.(Array.length sized / 2))

(* FS re-solve volume of [f ()]: the procedures in the re-solved cones and
   those of them analysed, the rest being cut off. *)
let resolve_volume f =
  let total = Trace.counter_total in
  let d0 = total "fs.resolve.dirty" and c0 = total "fs.resolve.cutoff" in
  let r = f () in
  let dirty = total "fs.resolve.dirty" - d0 in
  (r, dirty, dirty - (total "fs.resolve.cutoff" - c0))

(* Resubmitting the median-cone SPICE procedure verbatim drives the whole
   incremental path (invalidate, FI re-solve, seeded re-solve).  Against
   [Engine.create] on the same program, it may cost at most 25% of the
   words and of the SCC block visits.  Its records equal the previous
   ones, so it is the one procedure analysed and the rest of its cone is
   cut off. *)
let test_incremental_edit () =
  let prog = Lazy.force spice in
  let engine = Engine.create ~jobs:1 prog in
  let target = median_cone_proc prog in
  let edit () = ignore (Engine.edit_proc ~jobs:1 engine target) in
  let scratch () = ignore (Engine.create ~jobs:1 prog) in
  edit ();
  let (edit_words, edit_visits), cone, analysed =
    resolve_volume (fun () -> work edit)
  in
  let scratch_words, scratch_visits = work scratch in
  let words_ratio = edit_words /. scratch_words
  and visits_ratio = edit_visits /. scratch_visits in
  if
    words_ratio > 0.25 || visits_ratio > 0.25 || analysed <> 1
    || cone - analysed <= 0
  then
    Alcotest.failf
      "editing %s: %.1f%% of the words and %.1f%% of the block visits of a \
       from-scratch solve (bound 25%%), %d of a %d-procedure cone analysed \
       (committed: 1, the rest cut off)"
      target.Fsicp_lang.Ast.pname (100. *. words_ratio)
      (100. *. visits_ratio) analysed cone

(* Committed FS re-solve volumes of SPICE's two edit routes at [jobs 1],
   as (cone, analysed): a literal bump of the median-cone procedure
   (incremental), and the serve benchmark's store toggle (a rebuild that
   keeps the PCG).  Driving the whole cone, or solving the whole program
   on a rebuild, fails them. *)
let test_edit_route_volumes () =
  let prog = Lazy.force spice in
  let engine = Engine.create ~jobs:1 prog in
  let route what want edit =
    let outcome, cone, analysed =
      resolve_volume (fun () -> Engine.edit_proc ~jobs:1 engine edit)
    in
    (match (outcome, want) with
    | Engine.Incremental _, `Incremental | Engine.Rebuilt _, `Rebuilt -> ()
    | _ -> Alcotest.failf "%s took the other route" what);
    (what, cone, analysed)
  in
  let got =
    [
      route "median-cone literal bump" `Incremental
        (Test_util.bump_literals (median_cone_proc prog));
      route "store toggle" `Rebuilt (Test_util.toggle_edit prog);
    ]
  in
  let committed =
    [ ("median-cone literal bump", 7, 4); ("store toggle", 120, 12) ]
  in
  if got <> committed then
    Alcotest.failf "FS re-solve volumes (cone, analysed) differ:\n%s"
      (String.concat "\n"
         (List.map2
            (fun (what, c, a) (_, c', a') ->
              Printf.sprintf "%s: (%d, %d), committed (%d, %d)" what c a c' a')
            got committed))

(* A traced warm SPICE FS solve may allocate at most 15% more words than
   an untraced one.  The first traced run grows the event buffers; a
   reset keeps them. *)
let test_tracing_words () =
  let ctx = Context.create ~jobs:1 (Lazy.force spice) in
  Context.build_ssa ~jobs:1 ctx;
  let solve () =
    Context.reset_scc_memos ctx;
    ignore (Fs_icp.solve ~jobs:1 ctx)
  in
  let traced () =
    Trace.reset ();
    Trace.set_enabled true;
    Fun.protect ~finally:(fun () -> Trace.set_enabled false) solve
  in
  solve ();
  traced ();
  let untraced_words, _ = work solve in
  let traced_words, _ = work traced in
  let ratio = traced_words /. untraced_words in
  if ratio > 1.15 then
    Alcotest.failf
      "a traced solve allocated %.0f words, %.3fx the %.0f of an untraced \
       one (bound 1.15x)"
      traced_words ratio untraced_words

let suite =
  [
    Alcotest.test_case "allocation per procedure flat in globals" `Quick
      test_alloc_flat_in_globals;
    Alcotest.test_case "printing allocates at most 2 words per byte" `Quick
      test_pretty_words_per_byte;
    Alcotest.test_case "parsing allocates at most 7 words per byte" `Quick
      test_parse_words_per_byte;
    Alcotest.test_case "solver rows within 1.10x of committed words" `Quick
      test_solver_rows;
    Alcotest.test_case "suite SSA holds the committed 264 φs" `Quick
      test_suite_phis;
    Alcotest.test_case "deep if nest: no φs, words linear in depth" `Quick
      test_deep_nesting;
    Alcotest.test_case "FS words and block visits grow at most procs^1.15"
      `Slow test_scale_exponent;
    Alcotest.test_case "incremental edit costs at most 25% of a solve" `Quick
      test_incremental_edit;
    Alcotest.test_case "SPICE edit routes analyse the committed volumes"
      `Quick test_edit_route_volumes;
    Alcotest.test_case "tracing adds at most 15% words" `Quick
      test_tracing_words;
  ]
