"""The four workloads; ``benchkit.harness.workload_class`` maps names to classes."""
