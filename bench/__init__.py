"""retrodiff benchmark: workloads, tracing and the timed harness."""
