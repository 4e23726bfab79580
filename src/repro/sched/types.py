"""Schedule data structures (Section 4, preamble).

"Schedules are stored as a list of sequential timesteps. Each timestep
consists of an array of k+1 SIMD regions. The 0th region contains a list
of the qubits that will be moved and their sources and destinations ...
The remaining SIMD regions contain an unsorted list of operations to be
performed in that region."

We follow that layout: a :class:`Timestep` holds ``k`` per-region node
lists (nodes are indices into the scheduled DAG's statement list) plus
the movement list for the epoch *preceding* the timestep; region 0 of
the paper is the ``moves`` field here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.dag import DependenceDAG
from ..core.operation import Operation
from ..core.qubits import Qubit

__all__ = [
    "Move",
    "Timestep",
    "Schedule",
    "ScheduleError",
    "ScheduleViolation",
]


class ScheduleError(Exception):
    """Raised when a schedule violates a Multi-SIMD execution invariant.

    Historically this subclassed :class:`AssertionError`, which made the
    checks vanish under ``python -O``; it is now a plain
    :class:`Exception` (``ScheduleAssertionError`` remains as a
    deprecated alias).
    """


#: Deprecated alias for the pre-1.1 AssertionError-based name.
ScheduleAssertionError = ScheduleError


@dataclass(frozen=True)
class ScheduleViolation:
    """One structural invariant violation found in a schedule.

    Attributes:
        code: stable diagnostic code (``QL201`` ...), shared with the
            :mod:`repro.analysis` vocabulary.
        message: human-readable description.
        timestep: offending timestep index, if applicable.
    """

    code: str
    message: str
    timestep: Optional[int] = None


@dataclass(frozen=True)
class Move:
    """One qubit movement within a movement epoch.

    Attributes:
        qubit: the qubit being moved.
        src / dst: locations — ``("global",)``, ``("region", r)`` or
            ``("local", r)``.
        kind: ``"teleport"`` (4-cycle epoch) or ``"local"`` (1-cycle
            ballistic move to/from a region's scratchpad).
    """

    qubit: Qubit
    src: tuple
    dst: tuple
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("teleport", "local"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError(f"degenerate move of {self.qubit!r}")


@dataclass
class Timestep:
    """One logical timestep: per-region op lists plus the preceding
    movement epoch."""

    regions: List[List[int]]
    moves: List[Move] = field(default_factory=list)

    def active_regions(self) -> List[int]:
        """Region indices that execute at least one op this timestep."""
        return [r for r, ops in enumerate(self.regions) if ops]

    @property
    def width(self) -> int:
        """Number of simultaneously active regions."""
        return len(self.active_regions())

    def all_nodes(self) -> List[int]:
        return [n for ops in self.regions for n in ops]


class Schedule:
    """A fine-grained schedule of one module's DAG on a Multi-SIMD(k,d)
    machine.

    Attributes:
        dag: the scheduled dependence DAG.
        k: region count the schedule was built for.
        d: per-region data-parallel width limit (None = unbounded).
        timesteps: the schedule body.
        algorithm: name of the producing scheduler (for reports).
    """

    def __init__(
        self,
        dag: DependenceDAG,
        k: int,
        d: Optional[int] = None,
        algorithm: str = "",
    ):
        self.dag = dag
        self.k = k
        self.d = d
        self.algorithm = algorithm
        self.timesteps: List[Timestep] = []

    # -- construction -----------------------------------------------------

    def append_timestep(
        self, regions: Optional[Dict[int, List[int]]] = None
    ) -> Timestep:
        """Append a timestep, empty or holding ``regions``
        (``{region: nodes}``, as the scheduler kernels yield it)."""
        ts = Timestep(regions=[[] for _ in range(self.k)])
        if regions:
            for r, nodes in regions.items():
                ts.regions[r] = nodes
        self.timesteps.append(ts)
        return ts

    # -- shape -----------------------------------------------------------

    @property
    def length(self) -> int:
        """Schedule length in op timesteps (communication excluded)."""
        return len(self.timesteps)

    @property
    def op_count(self) -> int:
        return self.dag.n

    @property
    def max_width(self) -> int:
        """Highest degree of region parallelism in any timestep — the
        blackbox *width* the coarse scheduler uses (Section 4.3)."""
        return max((ts.width for ts in self.timesteps), default=0)

    @property
    def total_moves(self) -> int:
        return sum(len(ts.moves) for ts in self.timesteps)

    @property
    def teleport_moves(self) -> int:
        return sum(
            1
            for ts in self.timesteps
            for m in ts.moves
            if m.kind == "teleport"
        )

    @property
    def local_moves(self) -> int:
        return sum(
            1 for ts in self.timesteps for m in ts.moves if m.kind == "local"
        )

    def placement(self) -> Dict[int, Tuple[int, int]]:
        """Map of DAG node -> (timestep, region)."""
        out: Dict[int, Tuple[int, int]] = {}
        for t, ts in enumerate(self.timesteps):
            for r, nodes in enumerate(ts.regions):
                for n in nodes:
                    out[n] = (t, r)
        return out

    def operation(self, node: int) -> Operation:
        stmt = self.dag.statements[node]
        if not isinstance(stmt, Operation):
            raise TypeError(f"node {node} is not an Operation")
        return stmt

    # -- validation ------------------------------------------------------

    def iter_violations(self) -> Iterator[ScheduleViolation]:
        """Yield *every* structural invariant violation, in order.

        The checks cover:

        * every DAG node scheduled exactly once;
        * dependencies strictly ordered across timesteps;
        * at most ``k`` regions used, each with at most ``d`` ops;
        * one gate *type* per region per timestep (SIMD semantics);
        * no qubit touched twice within a timestep.

        :meth:`validate` raises on the first violation; the static
        auditor (:func:`repro.analysis.audit_schedule`) drains the
        full stream into diagnostics.
        """
        placed = self.placement()
        occurrences: Dict[int, int] = {}
        for ts in self.timesteps:
            for n in ts.all_nodes():
                occurrences[n] = occurrences.get(n, 0) + 1
        if len(placed) != self.dag.n:
            missing = set(range(self.dag.n)) - set(placed)
            yield ScheduleViolation(
                "QL201",
                f"{len(missing)} ops unscheduled "
                f"(e.g. {sorted(missing)[:5]})",
            )
        for n, count in sorted(occurrences.items()):
            if count > 1:
                yield ScheduleViolation(
                    "QL201",
                    f"node {n} scheduled {count} times",
                )
        for node in range(self.dag.n):
            if node not in placed:
                continue
            t, _ = placed[node]
            for p in self.dag.preds[node]:
                if p not in placed:
                    continue
                tp, _ = placed[p]
                if tp >= t:
                    yield ScheduleViolation(
                        "QL202",
                        f"dependence violated: node {p} (ts {tp}) must "
                        f"precede node {node} (ts {t})",
                        timestep=t,
                    )
        for t, ts in enumerate(self.timesteps):
            if len(ts.regions) > self.k:
                yield ScheduleViolation(
                    "QL203",
                    f"timestep {t} uses {len(ts.regions)} regions "
                    f"(k={self.k})",
                    timestep=t,
                )
            seen_qubits: Dict[Qubit, int] = {}
            for r, nodes in enumerate(ts.regions):
                if self.d is not None and len(nodes) > self.d:
                    yield ScheduleViolation(
                        "QL203",
                        f"timestep {t} region {r} holds {len(nodes)} "
                        f"ops (d={self.d})",
                        timestep=t,
                    )
                gate_types = {self.operation(n).gate for n in nodes}
                if len(gate_types) > 1:
                    yield ScheduleViolation(
                        "QL204",
                        f"timestep {t} region {r} mixes gate types "
                        f"{sorted(gate_types)} (SIMD requires one)",
                        timestep=t,
                    )
                for n in nodes:
                    for q in self.operation(n).qubits:
                        if q in seen_qubits:
                            yield ScheduleViolation(
                                "QL205",
                                f"timestep {t}: qubit {q!r} used by "
                                f"nodes {seen_qubits[q]} and {n}",
                                timestep=t,
                            )
                        seen_qubits[q] = n

    def validate(self) -> None:
        """Check every Multi-SIMD execution invariant; raise
        :class:`ScheduleError` on the first violation found."""
        for violation in self.iter_violations():
            raise ScheduleError(violation.message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.algorithm or 'unknown'}, k={self.k}, "
            f"len={self.length}, ops={self.op_count}, "
            f"width={self.max_width})"
        )
