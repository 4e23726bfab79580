"""The tests' oracle: the pre-optimization front end, schedulers,
memory model and schedule replay.

:mod:`.reference_flatten` keeps the whole-program flattening rewrite
(``inline_call`` and its own threshold loop) and the optimize ->
decompose -> flatten front end built on it
(``front_end_reference``); :mod:`.reference_sched` keeps the
straightforward implementations of DAG edge construction, RCP, LPFS,
movement derivation and coarse scheduling; :mod:`.memory` keeps the
memory map its movement derivation tracks; :mod:`.reference_replay`
keeps the quadratic schedule replay (``replay_schedule_reference``).
None is part of the package: the pipeline has one implementation of
each algorithm, and these are what it is checked against.

:func:`reference_swapped` runs a block with the oracle in place of the
pipeline's functions, so a test drives the same entry points
(``compile_and_schedule``, ``schedule_rcp``, ...) through both. The
replay is not swapped: ``tests/test_replay.py`` calls both replays
side by side.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator, List, Tuple

from . import reference_flatten, reference_sched

__all__ = ["SWAPS", "reference_swapped"]

#: ``(defining module, pipeline function name, oracle module, oracle
#: function name)`` for each function the swap exchanges.
SWAPS: Tuple[Tuple[str, str, ModuleType, str], ...] = (
    ("repro.toolflow", "_front_end", reference_flatten,
     "front_end_reference"),
    ("repro.core.dag", "_build_edges_fast", reference_sched,
     "dag_edges_reference"),
    ("repro.sched.rcp", "schedule_rcp", reference_sched,
     "schedule_rcp_reference"),
    ("repro.sched.lpfs", "schedule_lpfs", reference_sched,
     "schedule_lpfs_reference"),
    ("repro.sched.comm", "derive_movement", reference_sched,
     "derive_movement_reference"),
    ("repro.sched.coarse", "schedule_coarse", reference_sched,
     "schedule_coarse_reference"),
    ("repro.sched.coarse", "coarse_length_profile", reference_sched,
     "coarse_length_profile_reference"),
)


@contextmanager
def reference_swapped() -> Iterator[None]:
    """Run the enclosed block on the oracle.

    Wherever a loaded ``repro`` or ``tests`` module binds one of the
    :data:`SWAPS` names to the pipeline's function, the name is rebound
    to the oracle's version (read from its oracle module on entry);
    every rebinding is undone on exit.
    """
    pairs = [
        (
            name,
            getattr(importlib.import_module(module), name),
            getattr(oracle_module, oracle),
        )
        for module, name, oracle_module, oracle in SWAPS
    ]
    rebound: List[Tuple[object, str, object]] = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] not in ("repro", "tests"):
                continue
            for name, pipeline, oracle in pairs:
                if getattr(module, name, None) is pipeline:
                    setattr(module, name, oracle)
                    rebound.append((module, name, pipeline))
        yield
    finally:
        for module, name, pipeline in rebound:
            setattr(module, name, pipeline)
