"""repro.service — the compilation-service subsystem.

Three pillars on top of the core toolflow:

1. **content-addressed caching** (:mod:`.fingerprint`, :mod:`.store`,
   :mod:`.core`) — compile requests are canonically serialized and
   SHA-256 fingerprinted; results live in an in-memory LRU backed by an
   on-disk JSON artifact store shared across processes and runs;
2. **parallel batch sweeps** (:mod:`.sweep`) — configuration grids fan
   out over a process pool with per-job timeouts, crash retry, and
   graceful serial degradation, emitting a versioned
   ``BENCH_sweep.json`` report;
3. **instrumentation** (:mod:`repro.instrument`, re-exported here) —
   per-stage span timings recorded during every fresh compute and
   carried with the cached artifact.

Exposed on the CLI as ``python -m repro bench``.
"""

from ..instrument import SpanRecorder, record_spans, span
from .core import CompileService, ServiceEntry
from .perf import (
    PERF_SCHEMA,
    build_perf_payload,
    compare_perf_payloads,
    perf_grid,
    perf_worker,
    run_perf,
    run_scale_perf,
    scale_perf_jobs,
    validate_perf_payload,
)
from .fingerprint import (
    PIPELINE_VERSION,
    canonical_program,
    canonical_request,
    fingerprint_program,
    fingerprint_request,
)
from .stream_io import (
    STREAM_SCHEMA,
    execute_schedule_stream,
    inflate_schedule_stream,
    read_schedule_stream,
    validate_schedule_stream,
    write_schedule_stream,
)
from .store import (
    ARTIFACT_SCHEMA,
    STATS_SNAPSHOT_SCHEMA,
    ArtifactStore,
    CacheStats,
    LRUCache,
    default_cache_dir,
    inspect_store,
    read_stats_snapshot,
    write_stats_snapshot,
)
from .sweep import (
    ACCEPTED_SCHEMAS,
    SWEEP_SCHEMA,
    JobSpec,
    SweepGrid,
    SweepRun,
    build_sweep_payload,
    execute_job,
    run_sweep,
    validate_sweep_payload,
)

__all__ = [
    "ACCEPTED_SCHEMAS",
    "ARTIFACT_SCHEMA",
    "ArtifactStore",
    "CacheStats",
    "CompileService",
    "JobSpec",
    "LRUCache",
    "PERF_SCHEMA",
    "PIPELINE_VERSION",
    "STATS_SNAPSHOT_SCHEMA",
    "STREAM_SCHEMA",
    "SWEEP_SCHEMA",
    "ServiceEntry",
    "SpanRecorder",
    "SweepGrid",
    "SweepRun",
    "build_perf_payload",
    "build_sweep_payload",
    "canonical_program",
    "canonical_request",
    "compare_perf_payloads",
    "default_cache_dir",
    "execute_job",
    "execute_schedule_stream",
    "inflate_schedule_stream",
    "fingerprint_program",
    "fingerprint_request",
    "inspect_store",
    "perf_grid",
    "perf_worker",
    "read_schedule_stream",
    "read_stats_snapshot",
    "record_spans",
    "run_perf",
    "run_scale_perf",
    "scale_perf_jobs",
    "run_sweep",
    "span",
    "validate_perf_payload",
    "validate_schedule_stream",
    "write_schedule_stream",
    "write_stats_snapshot",
]
