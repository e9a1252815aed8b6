"""Outside-in benchmark for clapping-sim: workloads, correctness gate and
span tracing around the library's public calls. Entry point: run.py."""
