(* The benchmark's own checks: seeded inputs are reproducible, tail
   percentiles need enough samples beyond them, and layer self times add
   up to each operation's wall time. *)

open Perfbench
module Scale = Fsicp_workloads.Scale
module Spec = Fsicp_workloads.Spec

let corpus seed = Scale.digest (Corpus.generate ~seed ~procs:400)

let stream seed =
  let prog =
    Spec.program
      (List.find (fun b -> b.Spec.b_name = Workloads.spice) Spec.suite)
  in
  let gen = Requests.create ~seed prog in
  List.init 400 (fun _ -> (Requests.next gen).Requests.text)

let test_seeds () =
  Alcotest.(check string) "same seed, same corpus" (corpus 7) (corpus 7);
  Alcotest.(check bool) "other seed, other corpus" false (corpus 7 = corpus 8);
  Alcotest.(check (list string)) "same seed, same requests" (stream 7) (stream 7);
  Alcotest.(check bool) "other seed, other requests" false (stream 7 = stream 8)

let test_corpus_shape () =
  let prog = Corpus.generate ~seed:7 ~procs:401 in
  Fsicp_lang.Sema.check_exn prog;
  Alcotest.(check int) "procedures, main included" 401
    (List.length prog.Fsicp_lang.Ast.procs)

let test_mix () =
  let prog =
    Spec.program (List.find (fun b -> b.Spec.b_name = Workloads.spice) Spec.suite)
  in
  let gen = Requests.create ~seed:3 prog in
  for _ = 1 to 50 do
    let kinds = List.init Requests.block (fun _ -> (Requests.next gen).Requests.kind) in
    List.iter
      (fun (k, n) ->
        Alcotest.(check int) "kind count per block" n
          (List.length (List.filter (( = ) k) kinds)))
      Requests.mix
  done

let samples n = List.init n float

let test_percentile () =
  let check name want got =
    Alcotest.(check (option (float 0.))) name want got
  in
  check "p50 of 20 has 10 beyond" (Some 9.) (Stats.percentile 50. (samples 20));
  check "p50 of 19 has 9 beyond" None (Stats.percentile 50. (samples 19));
  check "p90 of 100" (Some 89.) (Stats.percentile 90. (samples 100));
  check "p90 of 99" None (Stats.percentile 90. (samples 99));
  check "p99 of 1000" (Some 989.) (Stats.percentile 99. (samples 1000));
  check "p99 of 999" None (Stats.percentile 99. (samples 999));
  check "empty" None (Stats.percentile 50. [])

let mk id name parent op t0 t1 w0 w1 =
  { Spans.id; name; parent; op; t0; t1; w0; w1 }

let test_self_time () =
  (* op 0: root [0,100] with a [10,60] holding b [20,30], and c [70,90];
     op 1: root [200,260] with a [200,250] twice-named. *)
  let spans =
    [
      mk 0 "op" (-1) 0 0L 100L 0. 100.;
      mk 1 "a" 0 0 10L 60L 10. 60.;
      mk 2 "b" 1 0 20L 30L 20. 30.;
      mk 3 "c" 0 0 70L 90L 70. 90.;
      mk 4 "op" (-1) 1 200L 260L 0. 60.;
      mk 5 "a" 4 1 200L 220L 0. 20.;
      mk 6 "a" 4 1 230L 250L 30. 50.;
    ]
  in
  match Spans.summarize spans with
  | [ o0; o1 ] ->
      let layers o = List.map (fun (n, ns, _) -> (n, Int64.to_int ns)) o.Spans.layers in
      Alcotest.(check (list (pair string int)))
        "op 0 self times" [ ("a", 40); ("b", 10); ("c", 20) ] (layers o0);
      Alcotest.(check int) "op 0 unattributed" 30 (Int64.to_int o0.Spans.unattributed_ns);
      Alcotest.(check (list (pair string int)))
        "op 1 self times" [ ("a", 40) ] (layers o1);
      Alcotest.(check int) "op 1 unattributed" 20 (Int64.to_int o1.Spans.unattributed_ns);
      List.iter
        (fun o ->
          Alcotest.(check int64) "layers + unattributed = wall" o.Spans.wall_ns
            (Spans.accounted_ns o))
        [ o0; o1 ];
      Alcotest.(check (float 1e-9)) "self minor words of a" 40.
        (List.find (fun (n, _, _) -> n = "a") o0.Spans.layers |> fun (_, _, w) -> w);
      Alcotest.(check int) "balanced" 0 (Layers.unbalanced [ o0; o1 ])
  | l -> Alcotest.failf "expected 2 operations, got %d" (List.length l)

let test_recorder () =
  Spans.reset ();
  Spans.enabled := true;
  Spans.operation 0 (fun () ->
      Spans.span "x" (fun () -> Spans.span "y" ignore);
      Spans.span "z" ignore);
  Spans.enabled := false;
  let spans = Spans.spans () in
  Alcotest.(check (list (pair string int)))
    "names and parents"
    [ ("op", -1); ("x", 0); ("y", 1); ("z", 0) ]
    (List.map (fun s -> (s.Spans.name, s.Spans.parent)) spans);
  Alcotest.(check int) "balanced" 0 (Layers.unbalanced (Spans.summarize spans));
  Spans.reset ()

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded corpus and requests" `Quick test_seeds;
          Alcotest.test_case "stitched corpus" `Quick test_corpus_shape;
          Alcotest.test_case "request mix" `Quick test_mix;
        ] );
      ( "stats",
        [ Alcotest.test_case "tail percentile needs 10 beyond" `Quick test_percentile ] );
      ( "spans",
        [
          Alcotest.test_case "self-time arithmetic" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
    ]
