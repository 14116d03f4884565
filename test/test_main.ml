let () =
  Alcotest.run "hextime"
    [
      ("prelude", Test_prelude.suite);
      ("grid", Test_grid.suite);
      ("stencil", Test_stencil.suite);
      ("hexgeom", Test_hexgeom.suite);
      ("exec_cpu", Test_exec_cpu.suite);
      ("tiling", Test_tiling.suite);
      ("gpu", Test_gpu.suite);
      ("model", Test_model.suite);
      ("tileopt", Test_tileopt.suite);
      ("harness", Test_harness.suite);
      ("codegen", Test_codegen.suite);
      ("analysis", Test_analysis.suite);
      ("parsweep", Test_parsweep.suite);
      ("obs", Test_obs.suite);
      ("extensions", Test_extensions.suite);
      ("hexabs", Test_hexabs.suite);
      ("gpu-domain", Test_gpu.domain_suite);
      ("serve", Test_serve.suite);
    ]
