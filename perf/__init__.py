"""``perf`` — the repository's performance benchmark (see perf/README.md).

Seven named workloads over the public API of ``repro``; end-to-end
metrics from an untraced run, per-layer metrics from a traced run that
measures every layer from outside.  Nothing here is imported by ``src/``.
"""
