"""The repository's benchmark: one command, five workloads, end-to-end and
per-layer metrics (see README.md in this directory and BENCHMARK.json)."""
