(* Test runner: every suite in the repository registers here. *)

let () =
  Alcotest.run "ipcp"
    [
      ("support", Test_support.suite);
      ("budget", Test_budget.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("fault", Test_fault.suite);
      ("telemetry", Test_telemetry.suite);
      ("engine", Test_engine.suite);
      ("frontend", Test_frontend.suite);
      ("interp", Test_interp.suite);
      ("witness", Test_witness.suite);
      ("data", Test_data_stmt.suite);
      ("intrinsics", Test_intrinsics.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("lattice", Test_lattice.suite);
      ("copy-lattice", Test_copy_lattice.suite);
      ("dependence", Test_dependence.suite);
      ("core", Test_core.suite);
      ("staged", Test_staged.suite);
      ("stage12", Test_stage12.suite);
      ("suite", Test_suite.suite);
      ("extensions", Test_extensions.suite);
      ("golden", Test_golden.suite);
      ("incr", Test_incr.suite);
      ("serve", Test_serve.suite);
      ("health", Test_health.suite);
      ("cli", Test_cli.suite);
      ("fuzz", Test_fuzz.suite);
      ("certify", Test_certify.suite);
      ("properties", Test_props.suite);
    ]
