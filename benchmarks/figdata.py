"""Shared infrastructure for the figure/table regeneration benches.

Each ``bench_*`` file regenerates one of the paper's tables or figures.
Compiles are cached here so that, e.g., Figure 6 and Figure 7 (which
read different metrics off the same schedules) don't pay twice.

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
from repro.service import CompileService, default_cache_dir
from repro.toolflow import CompileResult, SchedulerConfig

__all__ = [
    "ALGORITHMS",
    "SERVICE",
    "benchmark_names",
    "compile_benchmark",
    "min_qubits",
    "print_table",
]

ALGORITHMS = ("rcp", "lpfs")

#: One shared compile service: in-memory LRU within a bench run, the
#: on-disk artifact store across runs (set ``REPRO_CACHE_DIR`` to move
#: it off ``./.repro-cache``).
SERVICE = CompileService(cache_dir=default_cache_dir())


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
    """Compile one benchmark through the full toolflow (cached).

    ``local`` is the scratchpad capacity (None disables; fractions of Q
    are passed as plain floats). Results come from the content-addressed
    :data:`SERVICE`, so repeated figure regenerations — and anything
    else sharing the artifact store, like ``python -m repro lint
    --deep`` — pay for each configuration once.
    """
    spec = BENCHMARKS[key]
    return SERVICE.compile(
        _build(key),
        MultiSIMD(k=k, local_memory=local),
        SchedulerConfig(algorithm),
        fth=spec.fth,
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
