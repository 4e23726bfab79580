"""Human-readable and machine-readable schedule reports.

Rendering helpers used by the examples, the CLI, and downstream tools:

* :func:`render_timeline` — the paper's Figure-4-style cycle-by-cycle
  listing of a fine-grained schedule (one column per SIMD region, the
  movement epoch annotated per the "0th region" convention);
* :func:`schedule_to_dict` and :func:`compile_result_to_dict` —
  JSON-safe exports of schedules and whole compile results (the latter
  is the ``compile --json`` format);
* :func:`profile_table` — per-module blackbox dimension tables.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Any, Callable, Dict, List, Optional

from ..core.operation import CallSite, Operation
from ..core.qubits import Qubit
from .comm import CommStats
from .types import Schedule

__all__ = [
    "render_coarse_gantt",
    "render_timeline",
    "schedule_to_dict",
    "compile_result_to_dict",
    "profile_table",
]


def _op_text(op: Operation, show_qubits: bool) -> str:
    if not show_qubits:
        return op.gate
    qubits = ",".join(f"{q.register}{q.index}" for q in op.qubits)
    return f"{op.gate}({qubits})"


def render_timeline(
    sched: Schedule,
    max_timesteps: Optional[int] = 40,
    show_qubits: bool = True,
    column_width: int = 24,
    operation: Optional[Callable[[int], Operation]] = None,
) -> str:
    """Render a fine-grained schedule as a cycle-by-cycle table.

    Each row is one timestep; columns are the k SIMD regions; the final
    column summarises the movement epoch preceding the timestep.
    ``operation`` looks a node's op up (default ``sched.operation``; a
    columnar schedule passes its columns' ``operation``); only the
    printed timesteps' ops are looked up.
    """
    op_of = operation or sched.operation
    header = (
        ["cycle"]
        + [f"region {r}" for r in range(sched.k)]
        + ["moves"]
    )
    lines = ["  ".join(h.ljust(column_width if i else 5)
                       for i, h in enumerate(header))]
    lines.append("-" * len(lines[0]))
    shown = sched.length
    if max_timesteps is not None:
        shown = max(0, min(shown, max_timesteps))
    blank = "".ljust(column_width)
    for t, (moves, regions) in enumerate(
        islice(sched.iter_timesteps(), shown)
    ):
        cells = [str(t + 1).ljust(5)] + [blank] * sched.k
        for r, nodes in regions:
            text = " ".join(_op_text(op_of(n), show_qubits) for n in nodes)
            if len(text) > column_width:
                text = text[: column_width - 1] + "…"
            cells[1 + r] = text.ljust(column_width)
        teleports = sum(1 for m in moves if m.kind == "teleport")
        locals_ = len(moves) - teleports
        move_text = []
        if teleports:
            move_text.append(f"{teleports} teleport")
        if locals_:
            move_text.append(f"{locals_} local")
        cells.append(", ".join(move_text))
        lines.append("  ".join(cells).rstrip())
    if sched.length > shown:
        lines.append(f"... ({sched.length - shown} more timesteps)")
    return "\n".join(lines)


def _qubit_name(q: Qubit) -> str:
    return f"{q.register}[{q.index}]"


def _parse_qubit(name: str) -> Qubit:
    """Inverse of :func:`_qubit_name` (``reg[i]`` -> :class:`Qubit`)."""
    register, _, index = name.rpartition("[")
    if not register or not index.endswith("]"):
        raise ValueError(f"malformed qubit name {name!r}")
    return Qubit(register, int(index[:-1]))


def schedule_to_dict(sched: Schedule) -> Dict[str, Any]:
    """A JSON-safe dict of one fine-grained schedule.

    The export is self-contained: ``statements`` lists every DAG
    node's operation in node order, and each placed op carries its
    ``node`` index, so two exports compare equal exactly when their
    operations and placements do. Each timestep lists all ``k``
    regions, idle ones as empty lists. A columnar schedule raises
    ``TypeError``.
    """
    dag = sched.require_dag()

    def placed(n: int) -> Dict[str, Any]:
        op = sched.operation(n)
        return {
            "node": n,
            "gate": op.gate,
            "qubits": [_qubit_name(q) for q in op.qubits],
        }

    timesteps = []
    for moves, regions in sched.iter_timesteps():
        lists: List[List[Dict[str, Any]]] = [[] for _ in range(sched.k)]
        for r, nodes in regions:
            lists[r] = [placed(n) for n in nodes]
        timesteps.append(
            {
                "regions": lists,
                "moves": [
                    {
                        "qubit": _qubit_name(m.qubit),
                        "src": list(m.src),
                        "dst": list(m.dst),
                        "kind": m.kind,
                    }
                    for m in moves
                ],
            }
        )
    return {
        "algorithm": sched.algorithm,
        "k": sched.k,
        "d": sched.d,
        "length": sched.length,
        "op_count": sched.op_count,
        "max_width": sched.max_width,
        "teleport_moves": sched.teleport_moves,
        "local_moves": sched.local_moves,
        "statements": [
            {
                "gate": op.gate,
                "qubits": [_qubit_name(q) for q in op.qubits],
                **({"angle": op.angle} if op.angle is not None else {}),
            }
            for op in (
                sched.operation(n) for n in range(dag.n)
            )
        ],
        "timesteps": timesteps,
    }


def _json_num(value: float) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _comm_to_dict(stats: CommStats) -> Dict[str, Any]:
    return {
        "gate_cycles": stats.gate_cycles,
        "comm_cycles": stats.comm_cycles,
        "teleports": stats.teleports,
        "local_moves": stats.local_moves,
        "teleport_epochs": stats.teleport_epochs,
        "local_epochs": stats.local_epochs,
        "epr": {
            "total_pairs": stats.epr.total_pairs,
            "peak_epoch_demand": stats.epr.peak_epoch_demand,
            "pair_counts": [
                [src, dst, count]
                for (src, dst), count in sorted(stats.epr.pair_counts.items())
            ],
        },
    }


def _comm_from_dict(data: Dict[str, Any]) -> CommStats:
    from ..arch.teleport import EPRAccounting

    epr_data = data["epr"]
    epr = EPRAccounting(
        pair_counts={
            (src, dst): count
            for src, dst, count in epr_data["pair_counts"]
        },
        total_pairs=epr_data["total_pairs"],
        peak_epoch_demand=epr_data["peak_epoch_demand"],
    )
    return CommStats(
        gate_cycles=data["gate_cycles"],
        comm_cycles=data["comm_cycles"],
        teleports=data["teleports"],
        local_moves=data["local_moves"],
        teleport_epochs=data["teleport_epochs"],
        local_epochs=data["local_epochs"],
        epr=epr,
    )


def compile_result_to_dict(result) -> Dict[str, Any]:
    """A JSON-safe export of a :class:`~repro.toolflow.CompileResult`
    (the ``compile --json`` document).

    The export carries the full scheduler configuration, per-module
    blackbox dimensions with communication stats, the call-graph
    skeleton (``callees``), each module's formal parameters, non-leaf
    module bodies (``body`` — call sites with their qubit arguments and
    iteration counts, the inputs of the coarse composition), and all
    analyzer diagnostics. Leaf bodies and schedule bodies are omitted:
    they dominate the size, and the headline numbers and profiles
    already summarise them.
    """
    machine = result.machine
    return {
        "entry": result.program.entry,
        "scheduler": result.scheduler.algorithm,
        "scheduler_config": {
            "algorithm": result.scheduler.algorithm,
            "lpfs_l": result.scheduler.lpfs_l,
            "lpfs_simd": result.scheduler.lpfs_simd,
            "lpfs_refill": result.scheduler.lpfs_refill,
        },
        "machine": {
            "k": machine.k,
            "d": _json_num(machine.d if machine.d is not None else "inf"),
            "local_memory": _json_num(
                machine.local_memory
                if machine.local_memory is not None
                else None
            ),
        },
        "total_gates": result.total_gates,
        "critical_path": result.critical_path,
        "schedule_length": result.schedule_length,
        "runtime": result.runtime,
        "naive_runtime": result.naive_runtime,
        "parallel_speedup": result.parallel_speedup,
        "cp_speedup": result.cp_speedup,
        "comm_aware_speedup": result.comm_aware_speedup,
        "flattened_percent": result.flattened_percent,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "modules": {
            name: {
                "is_leaf": p.is_leaf,
                # Call graph of the *post-flatten* view: leaf profiles
                # have no callees even when the source program is the
                # streamed pipeline's unrewritten original, and call
                # targets inlined away by flatten are filtered out.
                "callees": sorted(
                    c
                    for c in result.program.module(name).callees()
                    if c in result.profiles
                ) if name in result.program and not p.is_leaf else [],
                **(
                    {
                        "params": [
                            _qubit_name(q)
                            for q in result.program.module(name).params
                        ]
                    }
                    if name in result.program
                    else {}
                ),
                **(
                    {
                        "body": [
                            _body_stmt_to_dict(stmt)
                            for stmt in result.program.module(name).body
                        ]
                    }
                    if not p.is_leaf
                    and name in result.program
                    and all(
                        c in result.profiles
                        for c in result.program.module(name).callees()
                    )
                    else {}
                ),
                "length": {str(w): c for w, c in sorted(p.length.items())},
                "runtime": {str(w): c for w, c in sorted(p.runtime.items())},
                "comm": {
                    str(w): _comm_to_dict(s)
                    for w, s in sorted(p.comm.items())
                },
            }
            for name, p in result.profiles.items()
        },
    }


def _body_stmt_to_dict(stmt: Any) -> Dict[str, Any]:
    """One module-body statement (op or call site), JSON-safe."""
    if isinstance(stmt, CallSite):
        return {
            "call": stmt.callee,
            "args": [_qubit_name(q) for q in stmt.args],
            **(
                {"iterations": stmt.iterations}
                if stmt.iterations != 1
                else {}
            ),
        }
    return {
        "gate": stmt.gate,
        "qubits": [_qubit_name(q) for q in stmt.qubits],
        **({"angle": stmt.angle} if stmt.angle is not None else {}),
    }


def profile_table(result, metric: str = "runtime") -> str:
    """Format every module's blackbox dimensions as a table.

    Args:
        result: a CompileResult.
        metric: ``"runtime"`` or ``"length"``.
    """
    if metric not in ("runtime", "length"):
        raise ValueError(f"unknown metric {metric!r}")
    widths = sorted(
        next(iter(result.profiles.values())).length.keys()
    )
    header = ["module", "leaf"] + [f"w={w}" for w in widths]
    rows: List[List[str]] = []
    for name in result.program.topological_order():
        p = result.profiles[name]
        table = getattr(p, metric)
        rows.append(
            [name, "*" if p.is_leaf else ""]
            + [f"{table.get(w, '-'):,}" if w in table else "-"
               for w in widths]
        )
    col_w = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, col_w)),
    ]
    lines.append("-" * len(lines[0]))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, col_w)))
    return "\n".join(lines)


def render_coarse_gantt(
    result,
    max_rows: int = 40,
    width: int = 60,
) -> str:
    """Render a :class:`~repro.sched.coarse.CoarseResult` as an ASCII
    Gantt chart: one row per statement, bars spanning [start, finish).

    Args:
        result: a CoarseResult.
        max_rows: truncate after this many placements.
        width: character width of the time axis.
    """
    placements = sorted(result.placements, key=lambda p: (p.start, p.node))
    total = max(result.total_length, 1)
    lines = [
        f"coarse schedule of {result.module!r}: "
        f"{result.total_length} cycles, peak width "
        f"{result.total_width}/{result.k}"
    ]
    shown = placements[:max_rows]
    for p in shown:
        lo = int(p.start / total * width)
        hi = max(lo + 1, int(p.finish / total * width))
        bar = " " * lo + "#" * (hi - lo)
        bar = bar.ljust(width)
        lines.append(
            f"  n{p.node:<4d} |{bar}| {p.start}..{p.finish} (w={p.width})"
        )
    if len(placements) > max_rows:
        lines.append(f"  ... ({len(placements) - max_rows} more)")
    return "\n".join(lines)
