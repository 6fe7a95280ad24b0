(* Benchmark entry point.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--jobs J]
               [--commit C] [--spans FILE]

   Prints a report, a run record, and as its last line one JSON object
   with [correct], [attempted], [failed] and [metrics]: the gated
   end-to-end metrics when untraced, the per-layer metrics when traced. *)

open Perfbench

(* The end-to-end metrics every workload reports (BENCHMARK.json). *)
let gated = [ "setup_s"; "peak_heap_mb"; "ops_per_cpu_s" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (suite-compile|corpus-compile|serve-session) \
     --seed N --seconds S --trace 0|1 [--jobs J] [--commit C] [--spans FILE]";
  exit 2

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics l =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_num v) unit)
         l)
  ^ "}"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let int_opt k ~default =
    match opt k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let nproc = Domain.recommended_domain_count () in
  let workload = Option.value (opt "workload") ~default:"" in
  let run =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None -> usage ()
  in
  let jobs = int_opt "jobs" ~default:nproc in
  if jobs < 1 || jobs > nproc then begin
    Printf.eprintf "bench: refusing jobs=%d on a machine with nproc=%d\n" jobs nproc;
    exit 2
  end;
  let seed = int_opt "seed" ~default:1 in
  let trace = int_opt "trace" ~default:0 = 1 in
  let seconds = float (int_opt "seconds" ~default:10) in
  let commit = Option.value (opt "commit") ~default:"unknown" in
  let cfg = { Workloads.seed; seconds; trace; jobs } in
  let out = run cfg in
  Printf.printf
    "run: {\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"jobs\":%d,\"nproc\":%d,\"ocaml\":%S,\"commit\":%S}\n"
    workload seed seconds trace jobs nproc Sys.ocaml_version commit;
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev out.Workloads.notes);
  let failed_frac =
    float out.Workloads.failed /. float (max 1 out.Workloads.attempted)
  in
  Printf.printf "  %-26s %14.6f  (%d of %d)\n" "failed_frac" failed_frac
    out.Workloads.failed out.Workloads.attempted;
  List.iter
    (fun (m : Workloads.metric) ->
      match m.Workloads.value with
      | Some v ->
          Printf.printf "  %-26s %14.4f %-6s (n=%d)\n" m.Workloads.name v
            m.Workloads.unit m.Workloads.n
      | None ->
          Printf.printf "  %-26s %14s %-6s (n=%d, fewer than %d beyond)\n"
            m.Workloads.name "-" m.Workloads.unit m.Workloads.n Stats.min_beyond)
    out.Workloads.metrics;
  let metrics =
    if trace then begin
      (match opt "spans" with
      | Some path -> Spans.write_jsonl path out.Workloads.spans
      | None -> ());
      List.iter
        (fun (name, unit, better) ->
          Printf.printf "  %-38s %14.4f %-6s %s is better%s\n" name
            (List.assoc name out.Workloads.layers)
            unit better
            (if
               List.exists
                 (fun l -> name = "gc." ^ l ^ ".minor_kw")
                 Layers.fan_out
               && jobs > 1
             then "  (calling domain only: lower bound)"
             else ""))
        Layers.names;
      List.map
        (fun (name, unit, _) -> (name, List.assoc name out.Workloads.layers, unit))
        Layers.names
    end
    else
      List.filter_map
        (fun name ->
          List.find_opt (fun (m : Workloads.metric) -> m.Workloads.name = name)
            out.Workloads.metrics
          |> Fun.flip Option.bind (fun (m : Workloads.metric) ->
                 Option.map (fun v -> (name, v, m.Workloads.unit)) m.Workloads.value))
        gated
  in
  let complete = trace || List.length metrics = List.length gated in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n"
    (out.Workloads.failed = 0 && complete)
    out.Workloads.attempted out.Workloads.failed (json_metrics metrics)
