let () =
  Alcotest.run "nisq"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("circuit", Test_circuit.suite);
      ("device", Test_device.suite);
      ("cache", Test_cache.suite);
      ("solver", Test_solver.suite);
      ("parallel", Test_parallel.suite);
      ("sim", Test_sim.suite);
      ("stabilizer", Test_stabilizer.suite);
      ("compiler", Test_compiler.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("cells", Test_cells.suite);
      ("frontend", Test_frontend.suite);
      ("extras", Test_extras.suite);
      ("resilience", Test_resilience.suite);
      ("runkit", Test_runkit.suite);
      ("observability", Test_observability.suite);
      ("serve", Test_serve.suite);
      ("reload", Test_reload.suite);
      ("cli", Test_cli.suite);
      ("properties", Test_props.suite);
    ]
