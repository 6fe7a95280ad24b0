(* Per-layer figures of the traced run.  Every workload prints every
   name below; a layer the workload never calls reads 0. *)

(* Layers timed by a span around a public entry point, by module. *)
let timed =
  [
    "lang.parse"; "lang.sema"; "lang.pretty"; "callgraph.build"; "ipa.summary";
    "ipa.alias"; "ipa.modref"; "ipa.use"; "cfg.lower"; "core.alias_kills";
    "ssa.build"; "core.fi"; "core.fs"; "core.cc"; "core.vc"; "core.insert";
    "core.fold"; "core.inline"; "core.clone"; "verify.insert"; "verify.fold";
    "verify.inline"; "verify.clone"; "serve.json_parse";
    "serve.handle.query-entry"; "serve.handle.query-call-site";
    "serve.handle.edit-proc"; "serve.json_print";
  ]

(* These fan out over worker domains at jobs > 1, so the calling domain's
   [Gc.minor_words] delta is only a lower bound of their allocation. *)
let fan_out = [ "cfg.lower"; "ssa.build"; "core.fs" ]

(* Counts and ratios, with their units and the direction that is better. *)
let counts =
  [
    ("lang.parse.mb_per_s", "MB/s", "higher");
    ("callgraph.procs", "count", "higher");
    ("callgraph.edges", "count", "higher");
    ("callgraph.back_edges", "count", "lower");
    ("core.fs.scc_runs", "count", "lower");
    ("core.fs.constants", "count", "higher");
    ("core.inline.sites", "count", "higher");
    ("core.clone.count", "count", "higher");
    ("verify.vcs", "count", "higher");
    ("verify.proved", "count", "higher");
    ("verify.inconclusive", "count", "lower");
    ("verify.refuted", "count", "lower");
    ("verify.paths", "count", "lower");
    ("verify.obligations", "count", "lower");
    ("engine.dirty_frac", "ratio", "lower");
    ("engine.incremental_frac", "ratio", "higher");
    ("scc.memo_hits", "count", "higher");
    ("gc.minor_collections", "count", "lower");
    ("gc.major_collections", "count", "lower");
    ("op.wall.ms", "ms", "lower");
    ("trace.unattributed.ms", "ms", "lower");
    ("trace.unattributed_frac", "ratio", "lower");
    ("trace.overhead.ms", "ms", "lower");
  ]

(* Every per-layer metric: name, unit, better. *)
let names =
  List.map (fun l -> (l ^ ".ms", "ms", "lower")) timed
  @ List.map (fun l -> ("gc." ^ l ^ ".minor_kw", "kw", "lower")) timed
  @ counts

(* Median self time and self allocation of each layer, over the
   operations that called it. *)
let of_summaries (ops : Spans.op_summary list) =
  List.concat_map
    (fun layer ->
      let hits =
        List.filter_map
          (fun (o : Spans.op_summary) ->
            List.find_opt (fun (n, _, _) -> String.equal n layer) o.Spans.layers)
          ops
      in
      [
        ( layer ^ ".ms",
          Stats.median (List.map (fun (_, ns, _) -> Int64.to_float ns /. 1e6) hits) );
        ( "gc." ^ layer ^ ".minor_kw",
          Stats.median (List.map (fun (_, _, w) -> w /. 1e3) hits) );
      ])
    timed
  @ [
      ( "op.wall.ms",
        Stats.median
          (List.map (fun (o : Spans.op_summary) -> Int64.to_float o.Spans.wall_ns /. 1e6) ops) );
      ( "trace.unattributed.ms",
        Stats.median
          (List.map
             (fun (o : Spans.op_summary) -> Int64.to_float o.Spans.unattributed_ns /. 1e6)
             ops) );
      ( "trace.unattributed_frac",
        let sum f = List.fold_left (fun a o -> a +. Int64.to_float (f o)) 0.0 ops in
        let wall = sum (fun o -> o.Spans.wall_ns) in
        if wall = 0.0 then 0.0 else sum (fun o -> o.Spans.unattributed_ns) /. wall );
    ]

(* Operations whose layer self times plus unattributed time do not give
   back their wall time (there should be none). *)
let unbalanced (ops : Spans.op_summary list) =
  List.length
    (List.filter (fun o -> Spans.accounted_ns o <> o.Spans.wall_ns) ops)
