"""Sequential baseline scheduler.

One operation per timestep, in program order (which is a valid
topological order of the dependence DAG by construction). This is the
"sequential execution" that Figure 6's speedups — and, multiplied by the
naive movement factor, Figures 7 and 8's — are measured against.

:func:`sequential_timesteps` is the one implementation;
:func:`schedule_sequential` and
:func:`repro.sched.stream.schedule_columns` are its two adapters.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..arch.machine import check_shape
from ..core.dag import DependenceDAG
from ..instrument import spanned
from .types import Schedule

__all__ = ["schedule_sequential", "sequential_timesteps"]


@spanned("schedule:sequential")
def schedule_sequential(
    dag: DependenceDAG, k: int = 1, d: Optional[int] = None
) -> Schedule:
    """Schedule one op per timestep in region 0."""
    check_shape(k, d)
    sched = Schedule(dag, k=k, d=d, algorithm="sequential")
    for regions in sequential_timesteps(dag.n):
        sched.append_timestep(regions)
    return sched


def sequential_timesteps(n: int) -> Iterator[Dict[int, List[int]]]:
    """Node ``i`` alone in region 0 at timestep ``i``, for ``n`` nodes."""
    for node in range(n):
        yield {0: [node]}
