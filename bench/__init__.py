"""Repository benchmark: workloads, layer tracing and the runner (see README.md)."""
