(** Golden equivalence suite for the program-database refactor: the interned
    id-based pipeline must render byte-identical {!Solution.pp} output to
    the fixtures under [test/golden/], which were generated from the
    string-keyed implementation.  Any precision or determinism drift in any
    method on any corpus program shows up as a fixture diff. *)

open Fsicp_lang
open Fsicp_core
module Trace = Fsicp_trace.Trace

let root_dir = Test_util.source_root

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load base =
  let path = Filename.concat (Filename.concat root_dir "testdata") (base ^ ".mf") in
  let prog = Parser.program_of_string (read_file path) in
  Sema.check_exn prog;
  prog

let corpus = [ "aliasing"; "bank"; "modes"; "newton"; "recursive" ]

(* Method keys match the fixture file names written by tools/golden_gen. *)
let methods : (string * (Context.t -> Solution.t)) list =
  [
    ("fi", Fi_icp.solve);
    ("fs", fun ctx -> Fs_icp.solve ctx);
    ("ref", Reference.solve);
    ("cc", fun ctx -> Cc_icp.solve ctx);
    ("vc", fun ctx -> Vc_icp.solve ctx);
    ("literal", fun ctx -> Jump_functions.solve ctx Jump_functions.Literal);
    ("intra", fun ctx -> Jump_functions.solve ctx Jump_functions.Intra);
    ("pass", fun ctx -> Jump_functions.solve ctx Jump_functions.Pass_through);
    ("poly", fun ctx -> Jump_functions.solve ctx Jump_functions.Polynomial);
  ]

let test_program base () =
  let prog = load base in
  List.iter
    (fun (mname, solve) ->
      let expected =
        read_file
          (Filename.concat root_dir
             (Printf.sprintf "test/golden/%s.%s.expected" base mname))
      in
      let ctx = Context.create prog in
      let got = Fmt.str "%a" Solution.pp (solve ctx) in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s matches fixture" base mname)
        expected got)
    methods

(* The fixtures must also be insensitive to the domain count used for
   lowering/SSA: render under jobs=4 as well. *)
let test_program_jobs4 base () =
  let prog = load base in
  List.iter
    (fun (mname, solve) ->
      let expected =
        read_file
          (Filename.concat root_dir
             (Printf.sprintf "test/golden/%s.%s.expected" base mname))
      in
      let ctx = Context.create ~jobs:4 prog in
      let got = Fmt.str "%a" Solution.pp (solve ctx) in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s (jobs=4) matches fixture" base mname)
        expected got)
    methods

(* A second flow-sensitive solve of the same (unchanged) context must hit
   the per-procedure entry-vector memo everywhere: byte-identical render
   and zero additional SCC block visits.  [Context.reset_ssa_cache] would
   drop the memos along with the SSA forms and make the next solve cold
   again. *)
let test_memo_warm ~jobs base () =
  let prog = load base in
  let ctx = Context.create ~jobs prog in
  let cold = Fmt.str "%a" Solution.pp (Fs_icp.solve ctx) in
  let visits_after_cold = Metrics.scc_block_visits () in
  let evictions_after_cold = Metrics.scc_memo_evictions () in
  let warm = Fmt.str "%a" Solution.pp (Fs_icp.solve ctx) in
  Alcotest.(check string)
    (Printf.sprintf "%s warm fs re-solve byte-identical (jobs=%d)" base jobs)
    cold warm;
  Alcotest.(check int)
    (Printf.sprintf "%s warm fs re-solve visits no SCC block (jobs=%d)" base
       jobs)
    0
    (Metrics.scc_block_visits () - visits_after_cold);
  (* The warm re-solve replays the cold solve's entry vectors, so the memo
     working set cannot outgrow capacity: an eviction here means the memo
     is thrashing instead of caching. *)
  Alcotest.(check int)
    (Printf.sprintf "%s warm fs re-solve evicts no memo entry (jobs=%d)" base
       jobs)
    0
    (Metrics.scc_memo_evictions () - evictions_after_cold)

(* The logical-mode pipeline trace is part of the pinned surface too: a
   jobs=1 Driver.run must reproduce the trace fixture byte for byte —
   event order, epochs, span args and counter values included. *)
let test_trace_fixture base () =
  let prog = load base in
  let expected =
    read_file
      (Filename.concat root_dir
         (Printf.sprintf "test/golden/%s.trace.expected" base))
  in
  Trace.reset ();
  Trace.set_enabled true;
  ignore (Driver.run ~jobs:1 prog);
  Trace.set_enabled false;
  let got = Trace.to_chrome_json ~mode:Trace.Logical () in
  Alcotest.(check string)
    (Printf.sprintf "%s logical trace matches fixture" base)
    expected got

let suite =
  List.concat_map
    (fun base ->
      [
        Alcotest.test_case (base ^ " fixtures") `Quick (test_program base);
        Alcotest.test_case
          (base ^ " trace fixture")
          `Quick
          (test_trace_fixture base);
        Alcotest.test_case
          (base ^ " fixtures (jobs=4)")
          `Quick
          (test_program_jobs4 base);
        Alcotest.test_case
          (base ^ " memo warm path")
          `Quick
          (test_memo_warm ~jobs:1 base);
        Alcotest.test_case
          (base ^ " memo warm path (jobs=4)")
          `Quick
          (test_memo_warm ~jobs:4 base);
      ])
    corpus
