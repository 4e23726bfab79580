"""repro.service — measurement and schedule-stream I/O over the toolflow.

* **measurement** (:mod:`.perf`, with :mod:`repro.instrument`
  re-exported here) — the ``perf`` harness times the pinned grid
  stage by stage from the pipeline's spans and gates the result
  against a committed baseline;
* **schedule streams** (:mod:`.stream_io`) — the out-of-core
  ``repro.schedule-stream`` format that ``compile --export-stream``
  writes and ``execute --stream`` / ``verify --stream`` read.

The harness is exposed on the CLI as ``perf``.
"""

from ..instrument import SpanRecorder, record_spans, span
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
from .stream_io import (
    STREAM_SCHEMA,
    execute_schedule_stream,
    inflate_schedule_stream,
    read_schedule_stream,
    validate_schedule_stream,
    write_schedule_stream,
)

__all__ = [
    "PERF_SCHEMA",
    "STREAM_SCHEMA",
    "SpanRecorder",
    "build_perf_payload",
    "compare_perf_payloads",
    "execute_schedule_stream",
    "inflate_schedule_stream",
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
