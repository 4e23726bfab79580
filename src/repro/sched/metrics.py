"""Schedule quality metrics: critical paths and the paper's speedups.

All of the paper's evaluation numbers are speedups against one of two
baselines:

* *sequential execution* — one gate per cycle, communication-free
  (Figure 6's parallelism-only view): ``speedup = gates / length``;
* *sequential naive movement* — one gate per cycle, every cycle wrapped
  in a teleport epoch (Figures 7-9): ``speedup = 5 * gates / runtime``.

The hierarchical critical path gives Figure 6's theoretical-maximum
series: per-module dependence-DAG critical paths where a call weighs
``iterations * CP(callee)``. It needs no DAG: each module's weighted
longest chain is one pass over its body with a per-qubit finish map,
``finish = weight + max(finish of operands)`` — the depth recurrence
of the DAG's adjacent-use edges, since a statement's predecessors are
exactly the last earlier users of its operands.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from ..core.module import Program
from ..core.operation import Operation, Statement
from ..core.qubits import Qubit

__all__ = [
    "module_critical_path",
    "hierarchical_critical_path",
    "parallel_speedup",
    "comm_speedup",
]


def module_critical_path(
    body: Sequence[Statement], callee_cp: Mapping[str, int]
) -> int:
    """Weighted longest dependence chain of one module body.

    A gate weighs 1 and a call ``iterations * callee_cp[callee]``. The
    result equals ``DependenceDAG(body, weights).critical_path_length()``
    without building the DAG.
    """
    finish: Dict[Qubit, int] = {}
    get = finish.get
    longest = 0
    for stmt in body:
        if isinstance(stmt, Operation):
            operands = stmt.qubits
            end = 1
        else:
            operands = stmt.args
            end = stmt.iterations * callee_cp[stmt.callee]
        start = 0
        for q in operands:
            f = get(q, 0)
            if f > start:
                start = f
        end += start
        for q in operands:
            finish[q] = end
        if end > longest:
            longest = end
    return longest


def hierarchical_critical_path(program: Program) -> Dict[str, int]:
    """Per-module estimated critical path, calls expanded by weight.

    Returns a map module-name -> CP cycles; the entry module's value is
    the program's estimated critical path (Figure 6's "cp" bars).
    """
    cp: Dict[str, int] = {}
    for name in program.topological_order():
        cp[name] = module_critical_path(program.module(name).body, cp)
    return cp


def parallel_speedup(total_gates: int, schedule_length: int) -> float:
    """Figure 6: speedup of a schedule over sequential execution,
    communication ignored."""
    if schedule_length <= 0:
        raise ValueError("schedule length must be positive")
    return total_gates / schedule_length


def comm_speedup(total_gates: int, runtime: int) -> float:
    """Figures 7-9: speedup over the sequential naive movement model
    (5 cycles per gate)."""
    from ..arch.machine import NAIVE_FACTOR

    if runtime <= 0:
        raise ValueError("runtime must be positive")
    return NAIVE_FACTOR * total_gates / runtime
