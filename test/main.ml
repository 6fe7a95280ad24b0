let () =
  Alcotest.run "fsicp"
    [
      ("value", Test_value.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("builder", Test_builder.suite);
      ("interp", Test_interp.suite);
      ("cfg", Test_cfg.suite);
      ("dominance", Test_dominance.suite);
      ("ssa", Test_ssa.suite);
      ("scc", Test_scc.suite);
      ("dataflow", Test_dataflow.suite);
      ("callgraph", Test_callgraph.suite);
      ("ipa", Test_ipa.suite);
      ("fi-icp", Test_fi_icp.suite);
      ("fs-icp", Test_fs_icp.suite);
      ("jump-functions", Test_jump_functions.suite);
      ("transform", Test_transform.suite);
      ("inline", Test_inline.suite);
      ("corpus", Test_corpus.suite);
      ("oracle", Test_oracle.suite);
      ("golden", Test_golden.suite);
      ("driver", Test_driver.suite);
      ("edge-cases", Test_edge.suite);
      ("metrics", Test_metrics.suite);
      ("workloads", Test_workloads.suite);
      ("scale", Test_scale.suite);
      ("alloc", Test_alloc.suite);
      ("par", Test_par.suite);
      ("figure1", Test_figure1.suite);
      ("trace", Test_trace.suite);
      ("engine", Test_engine.suite);
      ("verify", Test_verify.suite);
      ("serve", Test_serve.suite);
    ]
