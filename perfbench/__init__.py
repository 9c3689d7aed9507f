"""perfbench — the repository's benchmark.

Five closed-loop workloads over the public ``repro.*`` API, end-to-end
metrics in yardstick-normalised time, and a traced run per workload for
per-layer self times. ``BENCHMARK.json`` at the repository root names
every metric and workload; ``perfbench/README.md`` explains them.
"""
