let () =
  Alcotest.run "rod"
    [
      ("linalg", Test_linalg.suite);
      ("parallel", Test_parallel.suite);
      ("query", Test_query.suite);
      ("workload", Test_workload.suite);
      ("feasible", Test_feasible.suite);
      ("rod", Test_rod.suite);
      ("baselines", Test_baselines.suite);
      ("sim", Test_sim.suite);
      ("engine_golden", Test_engine_golden.suite);
      ("integration", Test_integration.suite);
      ("dynamic", Test_dynamic.suite);
      ("dynamic_props", Test_dynamic_props.suite);
      ("graph_io", Test_graph_io.suite);
      ("spe", Test_spe.suite);
      ("placement_props", Test_placement_props.suite);
      ("ls_equiv", Test_ls_equiv.suite);
      ("chaos", Test_chaos.suite);
      ("experiments", Test_experiments.suite);
      ("cql", Test_cql.suite);
      ("deploy", Test_deploy.suite);
      ("analysis", Test_analysis.suite);
      ("scan", Test_scan.suite);
      ("proto", Test_proto.suite);
      ("units", Test_units.suite);
      ("obs", Test_obs.suite);
      ("keyed_props", Test_keyed_props.suite);
      ("kernel_props", Test_kernel_props.suite);
      ("benchdiff", Test_benchdiff.suite);
    ]
