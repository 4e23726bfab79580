"""Host-speed correction for the benchmark's timings.

The host the benchmark runs on is shared: its speed swings by up to
1.5x in phases of seconds to minutes, which would swamp any change to
the code under test. So every timed interval also times a fixed speed
probe — about 1 ms of interpreter work — right before it, right after
it, and every ``SAMPLE_INTERVAL_S`` of CPU time inside it (from a
``SIGPROF`` handler). The interval is reported in *reference seconds*:
its own time, minus the probes inside it, scaled by ``PROBE_REF_S``
over the mean probe time. On a host whose speed holds still, reference
seconds track wall seconds up to a constant factor.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple

__all__ = ["PROBE_REF_S", "Sampler", "Timing", "probe"]

#: Median :func:`probe` time on the reference host (a 2-vCPU Intel Xeon
#: VM, CPython 3.11).
PROBE_REF_S = 0.001

#: CPU time between probes inside a timed interval (costs ~2%).
SAMPLE_INTERVAL_S = 0.05


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def probe() -> float:
    """Seconds for a fixed mix of interpreter work: dict updates, small
    objects, a keyed sort, integer arithmetic. The collector is off
    while it runs, so the program's heap size cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: Dict[int, int] = {}
        cells = []
        for i in range(600):
            key = (i * 7919) % 409
            table[key] = table.get(key, 0) + i
            cells.append(_Cell(key, i))
        cells.sort(key=lambda c: (c.key, c.value))
        acc = 0
        for c in cells:
            acc ^= c.key + c.value
        for i in range(10_000):
            acc += i * i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timing(NamedTuple):
    #: The callable's return value, or the exception it raised.
    outcome: Any
    #: Wall seconds, probes inside the interval excluded.
    seconds: float
    #: ``seconds`` rescaled to the reference host's speed.
    reference: float
    #: Seconds spent in probes, those around the interval included.
    probe_s: float


class Sampler:
    """Context manager owning the ``SIGPROF`` probe timer; :meth:`time`
    measures one call. While ``paused``, only the probes around each
    call run (traced passes pause it, so no probe lands in a span)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.paused = False
        self._previous: Any = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame) -> None:
        if not self.paused:
            self.samples.append(probe())

    def time(self, fn: Callable[[], Any]) -> Timing:
        before = probe()
        start = perf_counter()
        first = len(self.samples)
        try:
            outcome = fn()
        except Exception as exc:  # the caller reports it
            outcome = exc
        end = perf_counter()
        inner = self.samples[first:]
        after = probe()
        probes = [before, *inner, after]
        seconds = end - start - sum(inner)
        reference = seconds * PROBE_REF_S * len(probes) / sum(probes)
        return Timing(outcome, seconds, reference, sum(probes))
