(** Tests for the {!Fsicp_par.Par} primitives and for the determinism
    contract of the parallel pipeline: solving with any number of worker
    domains must produce exactly the same {!Solution.t} as the sequential
    path ([jobs = 1]), on every suite program and on generated programs
    including cyclic PCGs. *)

open Fsicp_core
open Fsicp_workloads
open Fsicp_par
module L = Fsicp_scc.Lattice

(* -- job-count parsing ---------------------------------------------------- *)

(* One case per class of bad input: parse_jobs must reject each with a
   message naming the offending value, never fall back silently. *)
let test_parse_jobs_accepts () =
  List.iter
    (fun (s, j) ->
      match Par.parse_jobs s with
      | Ok got -> Alcotest.(check int) (Printf.sprintf "parse %S" s) j got
      | Error m -> Alcotest.failf "parse_jobs %S rejected: %s" s m)
    [ ("1", 1); ("4", 4); ("  8  ", 8); ("128", 128) ]

let check_rejected s =
  match Par.parse_jobs s with
  | Ok j -> Alcotest.failf "parse_jobs %S wrongly accepted as %d" s j
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error for %S names the value (got %S)" s m)
        true
        (let mentions needle =
           let ln = String.length needle and lm = String.length m in
           let rec at i = i + ln <= lm && (String.sub m i ln = needle || at (i + 1)) in
           ln > 0 && at 0
         in
         mentions (String.trim s) || (String.trim s = "" && mentions "\"\""))

let test_parse_jobs_rejects_zero () = check_rejected "0"
let test_parse_jobs_rejects_negative () = check_rejected "-3"
let test_parse_jobs_rejects_garbage () = check_rejected "fuor"
let test_parse_jobs_rejects_empty () = check_rejected ""
let test_parse_jobs_rejects_float () = check_rejected "2.5"
let test_parse_jobs_rejects_trailing () = check_rejected "4x"

let with_env var value f =
  let old = Sys.getenv_opt var in
  (* putenv cannot unset: when the variable was absent, restore a value
     behaviourally identical to unset rather than the poisonous "". *)
  let restore =
    match old with
    | Some v -> v
    | None -> string_of_int (Domain.recommended_domain_count ())
  in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var restore) f

(* default_jobs must honour a good FSICP_JOBS and raise on a bad one —
   a typo'd env var must never quietly measure all-cores behaviour. *)
let test_default_jobs_env () =
  with_env "FSICP_JOBS" "3" (fun () ->
      Alcotest.(check int) "FSICP_JOBS=3 honoured" 3 (Par.default_jobs ()));
  List.iter
    (fun bad ->
      with_env "FSICP_JOBS" bad (fun () ->
          match Par.default_jobs () with
          | j -> Alcotest.failf "FSICP_JOBS=%S wrongly accepted as %d" bad j
          | exception Invalid_argument _ -> ()))
    [ "0"; "-1"; "fuor"; "2.5" ]

(* -- primitives ----------------------------------------------------------- *)

let test_parallel_init () =
  let f i = (i * 37) mod 101 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "Array.init equivalent (jobs=%d)" jobs)
        (Array.init 200 f)
        (Par.parallel_init ~jobs 200 f))
    [ 1; 2; 4 ]

let test_map_list () =
  let l = List.init 123 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "List.map equivalent (jobs=%d)" jobs)
        (List.map (fun x -> x * x) l)
        (Par.map_list ~jobs (fun x -> x * x) l))
    [ 1; 2; 4 ]

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Par.parallel_init ~jobs 50 (fun i ->
            if i = 17 then failwith "boom" else i)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "exception re-raised (jobs=%d)" jobs)
            "boom" m)
    [ 1; 4 ]

(* -- solution equality ---------------------------------------------------- *)

let globals_equal a b =
  List.equal
    (fun (n1, v1) (n2, v2) -> Fsicp_prog.Prog.Var.equal n1 n2 && L.equal v1 v2)
    a b

(* The two solutions come from distinct [Context.t]s, hence distinct
   program databases; compare procedures by name, never by raw id. *)
let record_equal (sa : Solution.t) (sb : Solution.t)
    (a : Solution.callsite_record) (b : Solution.callsite_record) =
  String.equal
    (Solution.proc_name sa a.Solution.cr_caller)
    (Solution.proc_name sb b.Solution.cr_caller)
  && a.Solution.cr_cs_index = b.Solution.cr_cs_index
  && String.equal
       (Solution.proc_name sa a.Solution.cr_callee)
       (Solution.proc_name sb b.Solution.cr_callee)
  && a.Solution.cr_executable = b.Solution.cr_executable
  && Array.length a.Solution.cr_args = Array.length b.Solution.cr_args
  && Array.for_all2 L.equal a.Solution.cr_args b.Solution.cr_args
  && globals_equal a.Solution.cr_globals b.Solution.cr_globals

let entry_equal (a : Solution.proc_entry) (b : Solution.proc_entry) =
  Array.length a.Solution.pe_formals = Array.length b.Solution.pe_formals
  && Array.for_all2 L.equal a.Solution.pe_formals b.Solution.pe_formals
  && globals_equal a.Solution.pe_globals b.Solution.pe_globals

let sorted_names (t : Solution.t) =
  Fsicp_prog.Prog.Proc.Tbl.fold
    (fun pid _ acc -> Solution.proc_name t pid :: acc)
    t.Solution.entries []
  |> List.sort compare

(** Structural identity including call-record order — the determinism
    contract is stronger than lattice equality. *)
let solutions_identical (a : Solution.t) (b : Solution.t) =
  a.Solution.scc_runs = b.Solution.scc_runs
  && List.equal String.equal (sorted_names a) (sorted_names b)
  && Fsicp_prog.Prog.Proc.Tbl.fold
       (fun pid ea acc ->
         acc
         &&
         match Solution.entry_opt b (Solution.proc_name a pid) with
         | Some eb -> entry_equal ea eb
         | None -> false)
       a.Solution.entries true
  && List.equal (record_equal a b) (Solution.call_records a)
       (Solution.call_records b)
  (* and the dense call-site index resolves every record of [a] in [b]:
     the [(caller, cs_index)] coordinates must agree across job counts *)
  && List.for_all
       (fun (cr : Solution.callsite_record) ->
         match
           Fsicp_prog.Prog.proc_id b.Solution.db
             (Solution.proc_name a cr.Solution.cr_caller)
         with
         | None -> false
         | Some caller -> (
             match
               Solution.find_call_record b ~caller
                 ~cs_index:cr.Solution.cr_cs_index
             with
             | Some cr' -> record_equal a b cr cr'
             | None -> false))
       (Solution.call_records a)

let solve_jobs prog jobs =
  let ctx = Context.create ~jobs prog in
  Fs_icp.solve ~jobs ctx

let check_jobs_equivalent ~what prog =
  let base = solve_jobs prog 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d identical to jobs=1" what jobs)
        true
        (solutions_identical base (solve_jobs prog jobs)))
    [ 2; 4 ]

let test_suite_jobs_equivalent () =
  List.iter
    (fun (b : Spec.benchmark) ->
      check_jobs_equivalent ~what:b.Spec.b_name (Spec.program b))
    Spec.suite

let prop_generated_jobs_equivalent =
  Test_util.qcheck ~count:30 ~name:"generated programs: jobs ∈ {1,2,4} identical"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let base = solve_jobs prog 1 in
      List.for_all
        (fun jobs -> solutions_identical base (solve_jobs prog jobs))
        [ 2; 4 ])

let prop_cyclic_jobs_equivalent =
  Test_util.qcheck ~count:30
    ~name:"cyclic PCGs (back-edge prob 0.9): jobs ∈ {1,2,4} identical"
    Test_util.seed_gen
    (fun seed ->
      let profile =
        {
          (Generator.small_profile seed) with
          Generator.g_back_edge_prob = 0.9;
        }
      in
      let prog = Generator.generate profile in
      let base = solve_jobs prog 1 in
      List.for_all
        (fun jobs -> solutions_identical base (solve_jobs prog jobs))
        [ 2; 4 ])

(* -- size cutoffs ---------------------------------------------------------- *)

let pools () = Fsicp_trace.Trace.counter_total "par.pools"

(* A Mixed-family program with at least [n] reachable procedures. *)
let scale_program n =
  let prog =
    Scale.generate { Scale.sp_family = Scale.Mixed; sp_procs = n; sp_seed = 3 }
  in
  let ctx = Context.create ~jobs:1 prog in
  let reachable = Fsicp_callgraph.Callgraph.n_procs ctx.Context.pcg in
  if reachable < n then
    Alcotest.failf "Scale program of %d procedures reaches only %d" n reachable;
  prog

(* [f jobs] at [jobs] 1, 2 and 4 gives one digest, and each run past the
   first makes at least one parallel run. *)
let check_parallel_site ~what f =
  let base = f 1 in
  List.iter
    (fun jobs ->
      let p0 = pools () in
      let d = f jobs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d runs in parallel" what jobs)
        true
        (pools () > p0);
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs=%d digest = jobs=1" what jobs)
        base d)
    [ 2; 4 ]

(* Lowering and the SSA pre-build fan out past [cutoff] procedures. *)
let test_cutoff_init_sites () =
  let prog = scale_program (Par.cutoff + 16) in
  let fs ctx = Solution.digest (Fs_icp.solve ~jobs:1 ctx) in
  check_parallel_site ~what:"lowering" (fun jobs ->
      fs (Context.create ~jobs prog));
  check_parallel_site ~what:"SSA pre-build" (fun jobs ->
      let ctx = Context.create ~jobs:1 prog in
      Context.build_ssa ~jobs ctx;
      fs ctx)

(* Past [cutoff] procedures the FS solve pre-builds SSA on several
   domains and gives the [jobs 1] digest.  The re-solve sweeps a cone of
   that size on the calling domain: the cone of [main] is the whole
   program, and seeding [main] alone over its own solution analyses
   [main] and cuts every other procedure off.  A real edit of [main]'s
   literal arguments changes entries across the program; its seeded
   re-solve analyses over a thousand procedures and must equal a from-scratch
   solve of the edited program at [jobs 2]. *)
let test_cutoff_solve_sites () =
  let prog = scale_program (Par.cutoff + 16) in
  let ctx = Context.create ~jobs:1 prog in
  let fi = Fi_icp.solve ctx in
  check_parallel_site ~what:"FS solve" (fun jobs ->
      Solution.digest (Fs_icp.solve ~jobs ~fi (Context.create ~jobs:1 prog)));
  let prev = Fs_icp.solve ~jobs:1 ~fi ctx in
  let pcg = ctx.Context.pcg in
  let main = Option.get (Fsicp_callgraph.Callgraph.proc_id pcg "main") in
  Alcotest.(check bool) "the cone of main is past the cutoff" true
    (Array.length (Fsicp_callgraph.Callgraph.cone pcg ~seeds:[ main ])
    >= Par.cutoff);
  List.iter
    (fun jobs ->
      let sol, analysed = Fs_icp.resolve ~jobs ~fi ~prev ~seeds:[ main ] ctx in
      Alcotest.(check int)
        (Printf.sprintf "unchanged inputs: only main analysed (jobs=%d)" jobs)
        1 analysed;
      Alcotest.(check string)
        (Printf.sprintf "FS re-solve: jobs=%d digest = solve" jobs)
        (Solution.digest prev) (Solution.digest sol))
    [ 1; 2; 4 ];
  let e = Engine.create ~jobs:1 prog in
  let edited =
    Test_util.bump_literals
      (Option.get (Fsicp_callgraph.Callgraph.find_ast pcg "main"))
  in
  (match Engine.edit_proc ~jobs:2 e edited with
  | Engine.Incremental { dirty; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "the edit re-analyses %d procedures (>= 1000)" dirty)
        true (dirty >= 1000)
  | Engine.Rebuilt why -> Alcotest.failf "edit of main rebuilt: %s" why);
  let fresh = Context.create ~jobs:2 (Engine.context e).Context.prog in
  Alcotest.(check string) "seeded re-solve at jobs 2 = from-scratch solve"
    (Solution.digest (Fs_icp.solve ~jobs:2 fresh))
    (Solution.digest (Engine.solution e))

(* Past the cutoff, the words a solve allocates on spawned domains count
   too: at [jobs 2] the FS solve, whose SSA pre-build runs on two domains,
   reads at least the [jobs 1] count (the same work, plus scheduling), and
   within 10% of it. *)
let test_cutoff_counts_worker_words () =
  let prog = scale_program (Par.cutoff + 16) in
  let minor jobs =
    let ctx = Context.create ~jobs:1 prog in
    let fi = Fi_icp.solve ctx in
    let m0, _ = Par.allocated_words () in
    ignore (Fs_icp.solve ~jobs ~fi ctx);
    let m1, _ = Par.allocated_words () in
    m1 -. m0
  in
  let one = minor 1 and two = minor 2 in
  if two < one || two > 1.1 *. one then
    Alcotest.failf "FS minor words: %.0f at jobs 2, %.0f at jobs 1" two one

(* -- parallel runs -------------------------------------------------------- *)

(* [jobs] tasks, each waiting (up to 5 s) until all [jobs] have started.
   A domain holds one task until then, so when the run spreads over
   [jobs] domains each task runs on its own; a run on fewer domains times
   out instead.  Returns how many distinct domains ran a task. *)
let domains_used ~jobs =
  let started = Atomic.make 0 in
  let seen =
    Par.parallel_init ~jobs jobs (fun _ ->
        Atomic.incr started;
        let t0 = Unix.gettimeofday () in
        while Atomic.get started < jobs && Unix.gettimeofday () -. t0 < 5.0 do
          Domain.cpu_relax ()
        done;
        (Domain.self () :> int))
  in
  List.length (List.sort_uniq compare (Array.to_list seen))

(* A [Par] call inside a task finds a run in flight and runs sequentially;
   its result is still [Array.init]'s. *)
let test_pool_nested () =
  List.iter
    (fun jobs ->
      let f i j = (i * 31) + j in
      Alcotest.(check (array (array int)))
        (Printf.sprintf "nested parallel_init (jobs=%d)" jobs)
        (Array.init 12 (fun i -> Array.init 7 (f i)))
        (Par.parallel_init ~jobs 12 (fun i ->
             Par.parallel_init ~jobs 7 (f i)));
      Alcotest.(check (array (list int)))
        (Printf.sprintf "nested map_list (jobs=%d)" jobs)
        (Array.init 5 (fun i -> [ i + 1; i + 2 ]))
        (Par.parallel_init ~jobs 5 (fun i ->
             Par.map_list ~jobs succ [ i; i + 1 ])))
    [ 2; 4 ]

(* A raising run re-raises its exception and gives the run token back, so
   the next run still spreads over every domain it asks for. *)
let test_pool_survives_exception () =
  List.iter
    (fun jobs ->
      (match
         Par.parallel_init ~jobs 64 (fun i ->
             if i mod 3 = 1 then failwith "boom" else i)
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
      Alcotest.(check int)
        (Printf.sprintf "next run uses every domain (jobs=%d)" jobs)
        jobs (domains_used ~jobs);
      Alcotest.(check (array int)) "next run is correct"
        (Array.init 100 succ)
        (Par.parallel_init ~jobs 100 succ))
    [ 2; 4 ]

(* Two domains calling [Par] at once: whichever finds a run in flight runs
   sequentially, and both get the right answers. *)
let test_pool_concurrent_callers () =
  List.iter
    (fun jobs ->
      let work k () =
        List.for_all
          (fun r ->
            Par.parallel_init ~jobs 50 (fun i -> (i * r) + k)
            = Array.init 50 (fun i -> (i * r) + k)
            && Par.map_list ~jobs (fun x -> x + k) [ r; r + 1 ]
               = [ r + k; r + 1 + k ])
          (List.init 100 Fun.id)
      in
      let other = Domain.spawn (work 7) in
      let here = work 3 () in
      Alcotest.(check bool)
        (Printf.sprintf "calling domain correct (jobs=%d)" jobs)
        true here;
      Alcotest.(check bool)
        (Printf.sprintf "second domain correct (jobs=%d)" jobs)
        true (Domain.join other))
    [ 2; 4 ]

let test_pool_grows () =
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "parallel_init at jobs=%d" jobs)
        (Array.init 300 (fun i -> i lxor 5))
        (Par.parallel_init ~jobs 300 (fun i -> i lxor 5));
      Alcotest.(check int)
        (Printf.sprintf "a run at jobs=%d uses every domain" jobs)
        jobs (domains_used ~jobs))
    [ 2; 4; 2; 4 ]

(* Every run at two domains spawns one and joins it: four hundred traced
   runs spawn four hundred domains.  Each spawned domain takes over the
   trace buffer the previous one left when it exited, so the wall trace
   has at most two tracks, the caller's and the workers', and stays
   well-bracketed. *)
let test_runs_spawn_and_recycle () =
  let module Trace = Fsicp_trace.Trace in
  let spawned () = Trace.counter_total "par.domains_spawned" in
  Trace.reset ();
  Trace.set_enabled true;
  let before = spawned () in
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      for i = 1 to 200 do
        ignore (Par.parallel_init ~label:"init" ~jobs:2 16 (fun j -> i + j));
        ignore
          (Par.parallel_init ~jobs:2 300 (fun _ -> Trace.span "node" ignore))
      done);
  Alcotest.(check int) "one domain spawned per run" 400 (spawned () - before);
  let events =
    Test_trace.events_of (Trace.to_chrome_json ~mode:Trace.Wall ())
  in
  let tracks =
    List.filter_map
      (fun ev ->
        if Test_trace.str_field "ph" ev = "B" then
          Some (Test_trace.int_field "tid" ev)
        else None)
      events
    |> List.sort_uniq compare
  in
  if List.length tracks > 2 then
    Alcotest.failf "%d wall-trace tracks after 400 runs at jobs 2"
      (List.length tracks);
  ignore (Test_trace.check_balanced events)

(* -- interning from several domains -------------------------------------- *)

module Prog = Fsicp_prog.Prog

(* Four domains intern overlapping name sets at once, enough names to make
   the table grow under them.  Each name must get one id everywhere. *)
let test_var_intern_concurrent () =
  let names =
    Array.init 4 (fun k ->
        Array.init 3000 (fun i -> Printf.sprintf "pc_%d" (i + (k * 1000))))
  in
  let intern_all k () = Array.map Prog.Var.intern names.(k) in
  let others = List.init 3 (fun k -> Domain.spawn (intern_all (k + 1))) in
  let mine = intern_all 0 () in
  let ids = mine :: List.map Domain.join others in
  let tbl = Hashtbl.create 8192 in
  List.iteri
    (fun k got ->
      Array.iteri
        (fun i id ->
          let s = names.(k).(i) in
          Alcotest.(check string) "name (intern s) = s" s (Prog.Var.name id);
          match Hashtbl.find_opt tbl s with
          | Some id' ->
              Alcotest.(check int) (s ^ ": one id everywhere")
                (Prog.Var.to_int id') (Prog.Var.to_int id)
          | None -> Hashtbl.add tbl s id)
        got)
    ids;
  let distinct =
    Hashtbl.fold (fun _ id acc -> Prog.Var.to_int id :: acc) tbl []
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "distinct names get distinct ids" (Hashtbl.length tbl)
    distinct;
  Alcotest.(check int) "the main domain sees the same ids again"
    (Prog.Var.to_int mine.(42))
    (Prog.Var.to_int (Prog.Var.intern names.(0).(42)))

(* The nan and signed-zero classes still collapse to one slot when another
   domain interns them first; fresh reals minted on a worker read back
   from the main domain. *)
let test_valpool_intern_concurrent () =
  let module V = Fsicp_lang.Value in
  let nan2 = Int64.float_of_bits 0x7ff0000000000abcL in
  let fresh = Array.init 500 (fun i -> V.Real (1e200 +. (float i *. 1e185))) in
  let worker () =
    ( Prog.Valpool.intern (V.Real nan2),
      Prog.Valpool.intern (V.Real (-0.0)),
      Array.map Prog.Valpool.intern fresh )
  in
  let nan_w, zero_w, fresh_w = Domain.join (Domain.spawn worker) in
  Alcotest.(check int) "nan payloads share a slot" nan_w
    (Prog.Valpool.intern (V.Real Float.nan));
  Alcotest.(check int) "-0.0 and 0.0 share a slot" zero_w
    (Prog.Valpool.intern (V.Real 0.0));
  Alcotest.(check bool) "the slot holds a nan" true
    (match Prog.Valpool.get nan_w with V.Real r -> Float.is_nan r | _ -> false);
  Alcotest.(check bool) "the slot holds a zero" true
    (V.equal (Prog.Valpool.get zero_w) (V.Real 0.0));
  Array.iteri
    (fun i id ->
      Alcotest.(check int) "worker-minted real: same id on main"
        id (Prog.Valpool.intern fresh.(i));
      Alcotest.(check bool) "worker-minted real reads back" true
        (V.equal fresh.(i) (Prog.Valpool.get id)))
    fresh_w

let suite =
  [
    Alcotest.test_case "parse_jobs accepts positive ints" `Quick
      test_parse_jobs_accepts;
    Alcotest.test_case "parse_jobs rejects zero" `Quick
      test_parse_jobs_rejects_zero;
    Alcotest.test_case "parse_jobs rejects negative" `Quick
      test_parse_jobs_rejects_negative;
    Alcotest.test_case "parse_jobs rejects garbage" `Quick
      test_parse_jobs_rejects_garbage;
    Alcotest.test_case "parse_jobs rejects empty" `Quick
      test_parse_jobs_rejects_empty;
    Alcotest.test_case "parse_jobs rejects float" `Quick
      test_parse_jobs_rejects_float;
    Alcotest.test_case "parse_jobs rejects trailing junk" `Quick
      test_parse_jobs_rejects_trailing;
    Alcotest.test_case "default_jobs: FSICP_JOBS strict" `Quick
      test_default_jobs_env;
    Alcotest.test_case "parallel_init = Array.init" `Quick test_parallel_init;
    Alcotest.test_case "map_list = List.map" `Quick test_map_list;
    Alcotest.test_case "worker exception re-raised" `Quick
      test_exception_propagates;
    Alcotest.test_case "suite programs: jobs equivalence" `Slow
      test_suite_jobs_equivalent;
    prop_generated_jobs_equivalent;
    prop_cyclic_jobs_equivalent;
    Alcotest.test_case "pool: nested call runs sequentially" `Quick
      test_pool_nested;
    Alcotest.test_case "pool: workers survive an exception" `Quick
      test_pool_survives_exception;
    Alcotest.test_case "pool: two domains call at once" `Quick
      test_pool_concurrent_callers;
    Alcotest.test_case "runs: one spawn each, two tracks" `Quick
      test_runs_spawn_and_recycle;
    Alcotest.test_case "cutoff: lowering and SSA fan out past it" `Quick
      test_cutoff_init_sites;
    Alcotest.test_case "cutoff: FS solve fans out, re-solve agrees past it"
      `Quick test_cutoff_solve_sites;
    Alcotest.test_case "cutoff: worker allocation is counted" `Quick
      test_cutoff_counts_worker_words;
    Alcotest.test_case "Var.intern from four domains" `Quick
      test_var_intern_concurrent;
    Alcotest.test_case "Valpool.intern from a worker domain" `Quick
      test_valpool_intern_concurrent;
    Alcotest.test_case "pool: grows from jobs 2 to jobs 4" `Quick
      test_pool_grows;
  ]
