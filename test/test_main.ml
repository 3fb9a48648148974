let () =
  Alcotest.run "cutfit"
    [
      ("prng", Test_prng.suite);
      ("graph", Test_graph.suite);
      ("stats", Test_stats.suite);
      ("gen", Test_gen.suite);
      ("partition", Test_partition.suite);
      ("bsp", Test_bsp.suite);
      ("obs", Test_obs.suite);
      ("check", Test_check.suite);
      ("csr", Test_csr.suite);
      ("races", Test_races.suite);
      ("algo", Test_algo.suite);
      ("core", Test_core.suite);
      ("workload", Test_workload.suite);
      ("dynamic", Test_dynamic.suite);
      ("faults", Test_faults.suite);
      ("resilience", Test_resilience.suite);
      ("elastic", Test_elastic.suite);
      ("spec", Test_spec.suite);
      (* chaos runs in test_chaos_main.exe: its fork-based tests need a
         process that has never spawned a domain (OCaml 5.1). *)
      ("experiments", Test_experiments.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("golden", Test_golden.suite);
    ]
