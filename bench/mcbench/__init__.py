"""Harness behind ``bench/run.py``: workloads, response oracle, tracing, metrics."""
