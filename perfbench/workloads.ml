(* The three workloads.  Each sets up (several times, reporting the
   median), then runs a closed loop with one client until the time is
   up, checking every operation's output outside the timed region.  In a
   traced run, alternate units (suite passes, corpus compiles, serve
   requests) run with spans on; the per-layer figures come from those and
   the difference to the untraced units is the tracing overhead. *)

open Fsicp_lang
open Fsicp_core
module Spec = Fsicp_workloads.Spec
module Prng = Fsicp_workloads.Prng
module Interp = Fsicp_interp.Interp
module Verify = Fsicp_verify.Verify
module Json = Fsicp_serve.Json
module Protocol = Fsicp_serve.Protocol
module Callgraph = Fsicp_callgraph.Callgraph

type config = { seed : int; seconds : float; trace : bool; jobs : int }

type metric = { name : string; value : float option; unit : string; n : int }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end, untraced units only *)
  layers : (string * float) list;  (** per-layer, traced units only *)
  spans : Spans.t list;
  notes : string list;
}

let now = Spans.now_ns
let ms ns = Int64.to_float ns /. 1e6
let metric ?(n = 1) name unit value = { name; value = Some value; unit; n }

let pct name q samples =
  { name; value = Stats.percentile q samples; unit = "ms"; n = List.length samples }

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Peak heap is read once a fixed amount of work is done, so it does not
   creep with the number of operations a run happens to fit. *)
let heap_reading = ref 0.0
let read_heap () = heap_reading := peak_heap_mb ()
let heap_mb () = if !heap_reading > 0.0 then !heap_reading else peak_heap_mb ()

(* Process CPU time in milliseconds: every domain's, and none of the time
   the machine gave to other tenants, which on a shared VM swings wall
   times by a third from run to run. *)
let cpu_ms () = Sys.time () *. 1e3

(* Run [f] [reps] times; the set-up time is the median CPU time of a
   repetition (the median wall time is reported beside it).  Each
   repetition starts from a fully collected heap, so it does not pay for
   the garbage of the one before. *)
type setup_times = { cpu_s : float; wall_s : float; reps : int }

let setup ~reps f =
  let rec go k cpu wall last =
    if k = 0 then
      (Option.get last, { cpu_s = Stats.median cpu; wall_s = Stats.median wall; reps })
    else begin
      Gc.full_major ();
      let c0 = cpu_ms () and t0 = now () in
      let r = f () in
      let wall_s = ms (Int64.sub (now ()) t0) /. 1e3 in
      go (k - 1) (((cpu_ms () -. c0) /. 1e3) :: cpu) (wall_s :: wall) (Some r)
    end
  in
  go reps [] [] None

let setup_metrics t =
  [
    metric ~n:t.reps "setup_s" "s" t.cpu_s;
    metric ~n:t.reps "setup_wall_s" "s" t.wall_s;
  ]

(* Throughput from the median window of [size] operations, in process CPU
   time (gated) and in wall time (reported). *)
let throughput ~size ~cpu ~wall =
  [
    metric ~n:(List.length cpu) "ops_per_cpu_s" "1/s" (Stats.rate ~size cpu);
    metric ~n:(List.length wall) "ops_per_s" "1/s" (Stats.rate ~size wall);
  ]

let deadline cfg = Int64.add (now ()) (Int64.of_float (cfg.seconds *. 1e9))

(* One operation, timed on the wall clock and in CPU time; in a traced
   unit it is also the root span. *)
let timed_op id f =
  let c0 = cpu_ms () in
  let t0 = now () in
  let r = Spans.operation id f in
  let dt = Int64.sub (now ()) t0 in
  (r, dt, cpu_ms () -. c0)

(* Per-layer counts, averaged per traced operation. *)
module Counts = struct
  let tbl : (string, float list) Hashtbl.t = Hashtbl.create 32

  let add name v =
    Hashtbl.replace tbl name
      (v :: Option.value (Hashtbl.find_opt tbl name) ~default:[])

  let means () =
    Hashtbl.fold (fun k vs acc -> (k, Stats.mean vs) :: acc) tbl []
end

let count name v = Counts.add name (float v)

(* Call-graph shape and FS results of one traced compile. *)
let count_front (f : Pipeline.front) =
  let pcg = f.Pipeline.ctx.Context.pcg in
  count "callgraph.procs" (Callgraph.n_procs pcg);
  count "callgraph.edges" (List.length pcg.Callgraph.edges);
  count "callgraph.back_edges"
    (List.length (List.filter (fun e -> e.Callgraph.back) pcg.Callgraph.edges));
  count "core.fs.scc_runs" f.Pipeline.fs.Solution.scc_runs;
  count "core.fs.constants" (Pipeline.constants f.Pipeline.fs)

(* GC collections over one traced operation. *)
let with_gc_counts f =
  if not !Spans.enabled then f ()
  else
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  Counts.add "gc.minor_collections"
    (float (s1.Gc.minor_collections - s0.Gc.minor_collections));
  Counts.add "gc.major_collections"
    (float (s1.Gc.major_collections - s0.Gc.major_collections));
  r

(* The traced run's per-layer table: the spans' self times, the counts,
   parse throughput and the tracing overhead. *)
let layer_table ~parse_bytes ~traced_ms ~untraced_ms =
  let spans = Spans.spans () in
  let ops = Spans.summarize spans in
  let rate =
    List.filter_map
      (fun (o : Spans.op_summary) ->
        match
          ( Hashtbl.find_opt parse_bytes o.Spans.op_id,
            List.find_opt (fun (n, _, _) -> n = "lang.parse") o.Spans.layers )
        with
        | Some bytes, Some (_, ns, _) when ns > 0L ->
            Some (float bytes /. 1e6 /. (Int64.to_float ns /. 1e9))
        | _ -> None)
      ops
  in
  let overhead =
    if traced_ms = [] || untraced_ms = [] then 0.0
    else Stats.mean traced_ms -. Stats.mean untraced_ms
  in
  let table =
    Layers.of_summaries ops @ Counts.means ()
    @ [ ("lang.parse.mb_per_s", Stats.median rate); ("trace.overhead.ms", overhead) ]
  in
  let value name = Option.value (List.assoc_opt name table) ~default:0.0 in
  (List.map (fun (name, _, _) -> (name, value name)) Layers.names, spans, ops)

let finish ~attempted ~failed ~metrics ~parse_bytes ~traced_ms ~untraced_ms
    ~notes cfg =
  if not cfg.trace then
    { attempted; failed; metrics; layers = []; spans = []; notes }
  else begin
    let layers, spans, ops = layer_table ~parse_bytes ~traced_ms ~untraced_ms in
    let bad = Layers.unbalanced ops in
    let notes =
      if bad = 0 then notes
      else Printf.sprintf "%d traced operation(s) do not add up" bad :: notes
    in
    { attempted; failed = failed + bad; metrics; layers; spans; notes }
  end

let same_prints a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> List.equal Value.equal x.Interp.prints y.Interp.prints
  | _ -> false

(* ------------------------------------------------------------------ *)
(* suite-compile                                                       *)
(* ------------------------------------------------------------------ *)

let suite_inputs () =
  let spec =
    List.map
      (fun b -> (b.Spec.b_name, Pretty.program_to_string (Spec.program b)))
      (Spec.suite @ Spec.addendum)
  in
  let files =
    Sys.readdir "testdata" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mf")
    |> List.sort compare
  in
  spec
  @ List.map
      (fun f ->
        (f, In_channel.with_open_bin (Filename.concat "testdata" f) In_channel.input_all))
      files

let is_refuted (vc : Verify.vc) =
  match vc.Verify.vc_verdict with Verify.Refuted _ -> true | _ -> false

let suite cfg =
  let inputs, setup_t = setup ~reps:15 suite_inputs in
  let inputs = Array.of_list inputs in
  (* References for the checks: the product's own digest and the
     original program's output. *)
  let refs =
    Array.map
      (fun (_, text) ->
        let prog = Parser.program_of_string text in
        ( Solution.digest (Driver.run ~jobs:cfg.jobs prog).Driver.fs,
          Interp.run_opt ~trace:false prog ))
      inputs
  in
  let interp_checked = Hashtbl.create 256 in
  (* Every pass compiles the programs in one order, rotated by the seed. *)
  let order =
    let n = Array.length inputs in
    let start = Prng.int (Prng.create cfg.seed) n in
    List.init n (fun k -> (start + k) mod n)
  in
  let parse_bytes = Hashtbl.create 256 in
  let traced_ms = ref [] and untraced_ms = ref [] in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let vcs = ref 0 and proved = ref 0 and cpu_lat = ref [] in
  let stop = deadline cfg in
  let pass = ref 0 in
  while now () < stop do
    let traced = cfg.trace && !pass mod 2 = 1 in
    List.iter
      (fun i ->
        let id = !attempted in
        incr attempted;
        let name, text = inputs.(i) in
        Spans.enabled := traced;
        let result =
          try
            Ok
              (timed_op id (fun () ->
                   with_gc_counts (fun () ->
                       Pipeline.suite_compile ~jobs:cfg.jobs text)))
          with e -> Error (Printexc.to_string e)
        in
        Spans.enabled := false;
        match result with
        | Error e ->
            incr failed;
            notes := Printf.sprintf "%s: %s" name e :: !notes
        | Ok (out, dt, cpu) ->
            let ref_digest, ref_run = refs.(i) in
            let same_output (tname, p) =
              let key = (i, tname, Pretty.program_to_string p) in
              match Hashtbl.find_opt interp_checked key with
              | Some ok -> ok
              | None ->
                  let ok = same_prints ref_run (Interp.run_opt ~trace:false p) in
                  Hashtbl.replace interp_checked key ok;
                  ok
            in
            let problems =
              List.filter_map Fun.id
                [
                  (if String.equal (Solution.digest out.Pipeline.s_front.Pipeline.fs) ref_digest
                   then None
                   else Some "FS digest differs from Driver.run");
                  (if List.exists is_refuted out.Pipeline.s_vcs then
                     Some "a VC is Refuted"
                   else None);
                  (if List.for_all same_output out.Pipeline.s_trans then None
                   else Some "a transformed program prints other values");
                ]
            in
            if problems <> [] then begin
              incr failed;
              notes :=
                Printf.sprintf "%s: %s" name (String.concat "; " problems)
                :: !notes
            end;
            let n_vcs = List.length out.Pipeline.s_vcs in
            let n_proved =
              List.length
                (List.filter
                   (fun (vc : Verify.vc) -> vc.Verify.vc_verdict = Verify.Proved)
                   out.Pipeline.s_vcs)
            in
            vcs := !vcs + n_vcs;
            proved := !proved + n_proved;
            if traced then begin
              traced_ms := ms dt :: !traced_ms;
              Hashtbl.replace parse_bytes id (String.length text);
              count_front out.Pipeline.s_front;
              let n_refuted = List.length (List.filter is_refuted out.Pipeline.s_vcs) in
              count "core.inline.sites" out.Pipeline.s_inline_sites;
              count "core.clone.count" out.Pipeline.s_clones;
              count "verify.vcs" n_vcs;
              count "verify.proved" n_proved;
              count "verify.refuted" n_refuted;
              count "verify.inconclusive" (n_vcs - n_proved - n_refuted);
              count "verify.paths"
                (List.fold_left
                   (fun a (vc : Verify.vc) -> a + vc.Verify.vc_paths)
                   0 out.Pipeline.s_vcs);
              count "verify.obligations"
                (List.fold_left
                   (fun a (vc : Verify.vc) ->
                     a + List.length vc.Verify.vc_obligations)
                   0 out.Pipeline.s_vcs)
            end
            else begin
              cpu_lat := cpu :: !cpu_lat;
              untraced_ms := ms dt :: !untraced_ms
            end)
      order;
    incr pass;
    if !pass = 2 then read_heap ()
  done;
  let metrics =
    setup_metrics setup_t
    @ [ metric "peak_heap_mb" "MB" (heap_mb ()) ]
    @ throughput ~size:(Array.length inputs) ~cpu:!cpu_lat ~wall:!untraced_ms
    @ [
      pct "compile_ms.p50" 50. !untraced_ms;
      pct "compile_ms.p90" 90. !untraced_ms;
      metric ~n:!vcs "vc_proved_frac" "ratio"
        (if !vcs = 0 then 0.0 else float !proved /. float !vcs);
    ]
  in
  finish ~attempted:!attempted ~failed:!failed ~metrics ~parse_bytes
    ~traced_ms:!traced_ms ~untraced_ms:!untraced_ms ~notes:!notes cfg

(* ------------------------------------------------------------------ *)
(* corpus-compile                                                      *)
(* ------------------------------------------------------------------ *)

let corpus_procs = 20_000

(* Statement budget for running a 20 000-procedure corpus once. *)
let corpus_fuel = 50_000_000

let corpus cfg =
  let text, setup_t =
    setup ~reps:5 (fun () ->
        Pretty.program_to_string (Corpus.generate ~seed:cfg.seed ~procs:corpus_procs))
  in
  let ref_digest =
    Solution.digest (Pipeline.corpus_compile ~jobs:1 text).Pipeline.c_front.Pipeline.fs
  in
  (* Set-up and the reference compile run on one domain, so the heap's
     high-water mark here does not depend on how domains interleave. *)
  read_heap ();
  let parse_bytes = Hashtbl.create 16 in
  let traced_ms = ref [] and untraced_ms = ref [] in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let folded = ref None and cpu_lat = ref [] in
  let stop = deadline cfg in
  while now () < stop do
    let id = !attempted in
    incr attempted;
    let traced = cfg.trace && id mod 2 = 1 in
    Spans.enabled := traced;
    let result =
      try
        Ok
          (timed_op id (fun () ->
               with_gc_counts (fun () -> Pipeline.corpus_compile ~jobs:cfg.jobs text)))
      with e -> Error (Printexc.to_string e)
    in
    Spans.enabled := false;
    match result with
    | Error e ->
        incr failed;
        notes := e :: !notes
    | Ok (out, dt, cpu) ->
        if not (String.equal (Solution.digest out.Pipeline.c_front.Pipeline.fs) ref_digest) then begin
          incr failed;
          notes := Printf.sprintf "digest at jobs=%d differs from jobs=1" cfg.jobs :: !notes
        end;
        if !folded = None then folded := Some out.Pipeline.c_fold;
        if traced then begin
          traced_ms := ms dt :: !traced_ms;
          Hashtbl.replace parse_bytes id (String.length text);
          count_front out.Pipeline.c_front
        end
        else begin
          cpu_lat := cpu :: !cpu_lat;
          untraced_ms := ms dt :: !untraced_ms
        end
  done;
  (* Once per run: the first folded corpus prints what the original does. *)
  let run p = Interp.run_opt ~fuel:corpus_fuel ~trace:false p in
  (match !folded with
  | Some fold -> (
      match (run (Parser.program_of_string text), run fold) with
      | (Some _ as a), (Some _ as b) when same_prints a b -> ()
      | _ ->
          incr failed;
          notes := "folded corpus prints other values" :: !notes)
  | None -> ());
  let metrics =
    setup_metrics setup_t
    @ [ metric "peak_heap_mb" "MB" (heap_mb ()) ]
    @ throughput ~size:1 ~cpu:!cpu_lat ~wall:!untraced_ms
    @ [
        metric ~n:(List.length !untraced_ms) "procs_per_s" "1/s"
          (Stats.rate ~size:1 !untraced_ms *. float corpus_procs);
      ]
  in
  finish ~attempted:!attempted ~failed:!failed ~metrics ~parse_bytes
    ~traced_ms:!traced_ms ~untraced_ms:!untraced_ms ~notes:!notes cfg

(* ------------------------------------------------------------------ *)
(* serve-session                                                       *)
(* ------------------------------------------------------------------ *)

let spice = "013.SPICE2G6"

(* Requests per throughput window: 13 mix blocks, 13 rebuilds. *)
let serve_window = 13 * Requests.block

(* Requests before the peak heap is read. *)
let serve_heap_after = 2000

let request st fields =
  Protocol.handle st (Json.Obj (List.map (fun (k, v) -> (k, v)) fields))

let is_ok resp = Json.member "ok" resp = Some (Json.Bool true)

let memo_hits st =
  match Json.member "counters" (request st [ ("cmd", Json.Str "stats") ]) with
  | Some c -> Option.value (Json.int_member "scc.memo_hits" c) ~default:0
  | None -> 0

let serve cfg =
  let prog =
    Spec.program (List.find (fun b -> b.Spec.b_name = spice) Spec.suite)
  in
  let load =
    Json.to_string
      (Json.Obj [ ("cmd", Json.Str "load"); ("source", Json.Str (Pretty.program_to_string prog)) ])
  in
  let st, setup_t =
    setup ~reps:11 (fun () ->
        let st = Protocol.make_state ~jobs:cfg.jobs ~version:"perfbench" () in
        match Json.of_string load with
        | Ok doc when is_ok (Protocol.handle st doc) -> st
        | _ -> failwith "serve-session: load failed")
  in
  let gen = Requests.create ~seed:cfg.seed prog in
  let memo0 = memo_hits st in
  let edits = ref [] and queries = ref [] and cpu_lat = ref [] in
  let traced_ms = ref [] and untraced_ms = ref [] in
  let dirty_fracs = ref [] and incremental = ref 0 and edit_outcomes = ref 0 in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let stop = deadline cfg in
  while now () < stop do
    let r = Requests.next gen in
    let id = !attempted in
    incr attempted;
    let traced = cfg.trace && id mod 2 = 1 in
    Spans.enabled := traced;
    let resp, dt, cpu =
      timed_op id (fun () ->
          with_gc_counts (fun () ->
              match Spans.span "serve.json_parse" (fun () -> Json.of_string r.Requests.text) with
              | Error e -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str e) ]
              | Ok doc ->
                  let resp =
                    Spans.span ("serve.handle." ^ r.Requests.cmd) (fun () ->
                        Protocol.handle st doc)
                  in
                  ignore (Spans.span "serve.json_print" (fun () -> Json.to_string resp));
                  resp))
    in
    Spans.enabled := false;
    let expected =
      match r.Requests.kind with
      | Requests.Edit_incremental -> Some "incremental"
      | Requests.Edit_rebuild -> Some "rebuilt"
      | Requests.Query_fs | Requests.Query_slow -> None
    in
    let outcomes =
      match Json.member "edits" resp with Some (Json.Arr l) -> l | _ -> []
    in
    List.iter
      (fun o ->
        incr edit_outcomes;
        if Json.str_member "outcome" o = Some "incremental" then begin
          incr incremental;
          match (Json.int_member "dirty" o, Json.int_member "total" o) with
          | Some d, Some t when t > 0 -> dirty_fracs := (float d /. float t) :: !dirty_fracs
          | _ -> ()
        end)
      outcomes;
    let route_ok =
      match expected with
      | None -> true
      | Some want ->
          outcomes <> []
          && List.for_all (fun o -> Json.str_member "outcome" o = Some want) outcomes
    in
    if not (is_ok resp && route_ok) then begin
      incr failed;
      notes := Json.to_string resp :: !notes
    end;
    if !attempted = serve_heap_after then read_heap ();
    let t = ms dt in
    if traced then traced_ms := t :: !traced_ms
    else begin
      untraced_ms := t :: !untraced_ms;
      cpu_lat := cpu :: !cpu_lat;
      if Requests.is_edit r.Requests.kind then edits := t :: !edits
      else queries := t :: !queries
    end
  done;
  let served = !attempted in
  if cfg.trace then
    Counts.add "scc.memo_hits" (float (memo_hits st - memo0) /. float (max 1 served));
  Counts.add "engine.dirty_frac" (Stats.mean !dirty_fracs);
  Counts.add "engine.incremental_frac"
    (if !edit_outcomes = 0 then 0.0 else float !incremental /. float !edit_outcomes);
  (* The live, incrementally maintained solution must equal a fresh solve
     of the program the server says it holds. *)
  let fresh_ok =
    match
      ( Json.str_member "digest" (request st [ ("cmd", Json.Str "digest") ]),
        Json.str_member "program" (request st [ ("cmd", Json.Str "dump-program") ]) )
    with
    | Some live, Some text ->
        String.equal live
          (Solution.digest (Engine.solution (Engine.create (Parser.program_of_string text))))
    | _ -> false
  in
  if not fresh_ok then begin
    incr failed;
    notes := "final digest differs from a fresh Engine.create" :: !notes
  end;
  let all = List.rev !untraced_ms in
  let metrics =
    setup_metrics setup_t
    @ [ metric "peak_heap_mb" "MB" (heap_mb ()) ]
    @ throughput ~size:serve_window ~cpu:(List.rev !cpu_lat) ~wall:all
    @ [
      pct "edit_ms.p50" 50. !edits;
      pct "edit_ms.p99" 99. !edits;
      pct "query_ms.p50" 50. !queries;
      pct "query_ms.p99" 99. !queries;
      metric ~n:(List.length all) "requests_per_s" "1/s"
        (Stats.rate ~size:serve_window all);
    ]
  in
  finish ~attempted:(served + 1) ~failed:!failed ~metrics
    ~parse_bytes:(Hashtbl.create 1) ~traced_ms:!traced_ms ~untraced_ms:!untraced_ms
    ~notes:!notes cfg

let all = [ ("suite-compile", suite); ("corpus-compile", corpus); ("serve-session", serve) ]
