let () =
  Alcotest.run "mcdft"
    [
      ("floatx", Test_floatx.suite);
      ("interval", Test_interval.suite);
      ("quantity", Test_quantity.suite);
      ("cmat", Test_cmat.suite);
      ("planar", Test_planar.suite);
      ("sparse", Test_sparse.suite);
      ("poly", Test_poly.suite);
      ("ratfunc", Test_ratfunc.suite);
      ("netlist", Test_netlist.suite);
      ("mna", Test_mna.suite);
      ("symbolic", Test_symbolic.suite);
      ("circuits", Test_circuits.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("fault", Test_fault.suite);
      ("testability", Test_testability.suite);
      ("fastsim", Test_fastsim.suite);
      ("multiconfig", Test_multiconfig.suite);
      ("cover", Test_cover.suite);
      ("optimizer", Test_optimizer.suite);
      ("pipeline", Test_pipeline.suite);
      ("spice", Test_spice.suite);
      ("report", Test_report.suite);
      ("extensions", Test_extensions.suite);
      ("diagnosis", Test_diagnosis.suite);
      ("random-circuits", Test_random_circuits.suite);
      ("analysis", Test_analysis.suite);
      ("influence", Test_influence.suite);
      ("json", Test_json.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("adaptive", Test_adaptive.suite);
      ("conformance", Test_conformance.suite);
      ("exit-codes", Test_exit_codes.suite);
    ]
