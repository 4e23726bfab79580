"""Shared infrastructure for the figure/table regeneration benches.

Each ``bench_*`` file regenerates one of the paper's tables or figures.
Compiles are memoized here for the life of the process so that, e.g.,
Figure 6 and Figure 7 (which read different metrics off the same
schedules) don't pay twice.

Run the whole harness with::

    pytest benchmarks/ --benchmark-only -s

The printed tables are the deliverable; the pytest-benchmark timings
additionally record how long each figure's scheduling work takes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.passes.qubit_count import minimum_qubits
from repro.toolflow import (
    CompileResult,
    SchedulerConfig,
    compile_and_schedule,
)

__all__ = [
    "ALGORITHMS",
    "benchmark_names",
    "compile_benchmark",
    "min_qubits",
    "print_table",
]

ALGORITHMS = ("rcp", "lpfs")


@lru_cache(maxsize=None)
def _build(key: str):
    return BENCHMARKS[key].build()


@lru_cache(maxsize=None)
def min_qubits(key: str) -> int:
    """Table 1's Q for one benchmark (reproduction parameters)."""
    return minimum_qubits(_build(key))


def compile_benchmark(
    key: str,
    algorithm: str = "lpfs",
    k: int = 4,
    local: Optional[float] = None,
) -> CompileResult:
    """Compile one benchmark through the full toolflow (memoized).

    ``local`` is the scratchpad capacity (None disables; fractions of Q
    are passed as plain floats). Each configuration compiles once per
    process, however the call spells its arguments.
    """
    return _compile(key, algorithm, k, local)


@lru_cache(maxsize=None)
def _compile(
    key: str, algorithm: str, k: int, local: Optional[float]
) -> CompileResult:
    return compile_and_schedule(
        _build(key),
        MultiSIMD(k=k, local_memory=local),
        SchedulerConfig(algorithm),
        fth=BENCHMARKS[key].fth,
    )


def print_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    note: str = "",
) -> None:
    """Print a paper-style results table."""
    rows = [list(map(str, r)) for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    print()
    print(f"=== {title} ===")
    if note:
        print(note)
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    print()
