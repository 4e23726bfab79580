"""Lightweight span instrumentation for the compilation pipeline.

The service layer (:mod:`repro.service`) wants per-stage wall-clock
breakdowns — how long decomposition, flattening, each scheduler and the
communication refinement took for one compile — without the pipeline
code knowing anything about benchmarking. This module provides that as
*spans*: named timed sections recorded against whichever
:class:`SpanRecorder` instances are active on the current stack.

Design constraints:

* **near-zero cost when idle** — ``span()`` checks the module-level
  list of active recorders and yields immediately when it is empty,
  so ordinary library use pays one ``if`` per instrumented call;
* **no global state leaks** — recorders are scoped with
  :func:`record_spans`; nesting is allowed and every active recorder
  sees every span (spans may overlap: ``toolflow:schedule`` contains
  the per-algorithm ``schedule:*`` spans it triggers);
* **no dependencies** — this is a leaf module importable from anywhere
  in the package (schedulers, passes, the comm refiner) without import
  cycles.

Span name prefixes in use: ``pass:*`` (decompose/flatten/optimize),
``schedule:*`` (per-algorithm fine scheduling), ``comm:*`` (movement
derivation), ``toolflow:*`` (whole-stage wrappers), ``service:*``
(cache lookups), and ``analysis:*`` (the deep static battery —
``analysis:lifetime`` and ``analysis:resource`` fixpoint solves plus
``analysis:deep-rules`` emission).

Usage::

    with record_spans() as rec:
        compile_and_schedule(program, machine)
    print(rec.to_dict())   # {"pass:decompose": {"calls": 1, ...}, ...}
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, TypeVar

__all__ = [
    "SpanStat",
    "SpanRecorder",
    "span",
    "spanned",
    "record_spans",
]

F = TypeVar("F", bound=Callable)

#: Active recorders, innermost last. Module-level (not thread-local):
#: the pipeline is single-threaded within a process, and sweep workers
#: are separate *processes* with their own copy of this list.
_ACTIVE: List["SpanRecorder"] = []


@dataclass
class SpanStat:
    """Aggregated statistics for one span name."""

    calls: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "seconds": self.seconds}


class SpanRecorder:
    """Accumulates span timings by name while active.

    Attributes:
        spans: mapping of span name -> :class:`SpanStat`, in
            first-recorded order.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStat] = {}

    def add(self, name: str, seconds: float) -> None:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = SpanStat()
        stat.calls += 1
        stat.seconds += seconds

    def total(self, prefix: str = "") -> float:
        """Summed seconds over spans whose name starts with ``prefix``.

        Note that spans nest (a ``toolflow:*`` span contains the
        ``schedule:*`` and ``comm:*`` spans it triggers), so totals over
        mixed prefixes double-count by design.
        """
        return sum(
            s.seconds
            for name, s in self.spans.items()
            if name.startswith(prefix)
        )

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe ``{name: {"calls": n, "seconds": s}}`` mapping."""
        return {name: stat.to_dict() for name, stat in self.spans.items()}

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanRecorder({len(self.spans)} spans)"


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a section against every active recorder.

    A no-op (single list check) when no :func:`record_spans` scope is
    active.
    """
    if not _ACTIVE:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for rec in _ACTIVE:
            rec.add(name, elapsed)


def spanned(name: str) -> Callable[[F], F]:
    """Decorator form of :func:`span` for whole functions."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


@contextmanager
def record_spans() -> Iterator[SpanRecorder]:
    """Activate a fresh :class:`SpanRecorder` for the enclosed block."""
    rec = SpanRecorder()
    _ACTIVE.append(rec)
    try:
        yield rec
    finally:
        _ACTIVE.remove(rec)
