let () =
  Alcotest.run "prefix"
    (Test_util.suite @ Test_trace.suite @ Test_heap.suite @ Test_cachesim.suite
   @ Test_hds.suite @ Test_core.suite @ Test_runtime.suite @ Test_halo_wl.suite
   @ Test_patterns.suite @ Test_detector_internals.suite @ Test_traceio.suite @ Test_hybrid.suite @ Test_oracles.suite @ Test_benchmarks.suite @ Test_headline.suite @ Test_experiments.suite @ Test_obs.suite @ Test_faults.suite @ Test_parallel.suite @ Test_packed_replay.suite @ Test_stream.suite @ Test_columnar.suite @ Test_telemetry.suite @ Test_checkpoint.suite @ Test_mmap.suite @ Test_blockpolicy.suite @ Test_analysis_diff.suite @ Test_replay_matrix.suite)
