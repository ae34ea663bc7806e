"""Benchmark harness for geoent: workloads, correctness references and tracing."""
