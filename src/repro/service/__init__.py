"""repro.service — the compilation-service subsystem.

Two pillars on top of the core toolflow:

1. **content-addressed caching** (:mod:`.fingerprint`, :mod:`.store`,
   :mod:`.core`) — compile requests are canonically serialized and
   SHA-256 fingerprinted; results live in an in-memory LRU backed by an
   on-disk JSON artifact store shared across processes and runs;
2. **measurement** (:mod:`.perf`, with :mod:`repro.instrument`
   re-exported here) — the ``perf`` harness times the pinned grid
   stage by stage from the pipeline's spans and gates the result
   against a committed baseline.

:mod:`.stream_io` adds the out-of-core schedule-stream format. The
cache is exposed on the CLI through ``lint --deep`` and
``cache-stats``; the harness as ``perf``.
"""

from ..instrument import SpanRecorder, record_spans, span
from .core import CompileService, ServiceEntry
from .perf import (
    PERF_SCHEMA,
    build_perf_payload,
    compare_perf_payloads,
    perf_grid,
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
    ArtifactStore,
    CacheStats,
    LRUCache,
    default_cache_dir,
    inspect_store,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactStore",
    "CacheStats",
    "CompileService",
    "LRUCache",
    "PERF_SCHEMA",
    "PIPELINE_VERSION",
    "STREAM_SCHEMA",
    "ServiceEntry",
    "SpanRecorder",
    "build_perf_payload",
    "canonical_program",
    "canonical_request",
    "compare_perf_payloads",
    "default_cache_dir",
    "execute_schedule_stream",
    "inflate_schedule_stream",
    "fingerprint_program",
    "fingerprint_request",
    "inspect_store",
    "perf_grid",
    "read_schedule_stream",
    "record_spans",
    "run_perf",
    "run_scale_perf",
    "scale_perf_jobs",
    "span",
    "validate_perf_payload",
    "validate_schedule_stream",
    "write_schedule_stream",
]
