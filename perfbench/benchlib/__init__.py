"""Benchmark library for extkit: workloads, tracing, oracles and output checks."""
