let () =
  Alcotest.run "shootdown"
    [
      ("sim", Test_sim.suite);
      ("cpuset", Test_cpuset.suite);
      ("hw", Test_hw.suite);
      ("mm", Test_mm.suite);
      ("core-structs", Test_core_structs.suite);
      ("shootdown", Test_shootdown.suite);
      ("fault-syscall", Test_fault_syscall.suite);
      ("sched", Test_sched.suite);
      ("safety", Test_safety.suite);
      ("workloads", Test_workloads.suite);
      ("extensions", Test_extensions.suite);
      ("huge-migrate", Test_huge_migrate.suite);
      ("fork-mremap", Test_fork_mremap.suite);
      ("ksm", Test_ksm.suite);
      ("stress", Test_stress.suite);
      ("checker", Test_checker.suite);
      ("analysis", Test_analysis.suite);
      ("coverage", Test_coverage.suite);
      ("determinism", Test_determinism.suite);
      ("protocols", Test_protocols.suite);
      ("fuzz", Test_fuzz.suite);
      ("properties", Test_props.suite);
      ("bench-perf", Test_bench_perf.suite);
    ]
