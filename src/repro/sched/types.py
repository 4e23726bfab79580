"""Schedule data structures (Section 4, preamble).

"Schedules are stored as a list of sequential timesteps. Each timestep
consists of an array of k+1 SIMD regions. The 0th region contains a list
of the qubits that will be moved and their sources and destinations ...
The remaining SIMD regions contain an unsorted list of operations to be
performed in that region."

We follow that layout in flat arrays. A :class:`Schedule` lists every
placed op once, timestep-major and region-ascending: ``flat_nodes``
holds the node (an index into the scheduled DAG's statement list, or
into a columnar leaf's :class:`~repro.sched.stream.StreamColumns`),
``flat_regions`` its region, and timestep ``t`` owns entries
``ts_off[t]:ts_off[t + 1]``. Region 0 of the paper is ``moves``: the
movement epoch *preceding* each timestep, one list per timestep once
:func:`~repro.sched.comm.derive_movement` has attached them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.dag import DependenceDAG
from ..core.operation import Operation
from ..core.qubits import Qubit

__all__ = [
    "Move",
    "Schedule",
    "ScheduleError",
    "ScheduleViolation",
]


class ScheduleError(Exception):
    """Raised when a schedule violates a Multi-SIMD execution invariant.

    A plain :class:`Exception`, so the checks survive ``python -O``.
    """


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


#: One timestep's busy regions as ``(region, nodes)``, region-ascending.
Regions = List[Tuple[int, List[int]]]


class Schedule:
    """A fine-grained schedule of one module on a Multi-SIMD(k,d)
    machine.

    Attributes:
        dag: the scheduled dependence DAG, or ``None`` for a columnar
            leaf (its ops live in the leaf's
            :class:`~repro.sched.stream.StreamColumns`).
        k: region count the schedule was built for.
        d: per-region data-parallel width limit (None = unbounded).
        algorithm: name of the producing scheduler (for reports).
        ts_off / flat_regions / flat_nodes: the body (module docstring).
        max_width: most regions busy in one timestep — the blackbox
            *width* the coarse scheduler uses (Section 4.3).
        moves: the movement epoch preceding each timestep; empty until
            movement is attached.
    """

    def __init__(
        self,
        dag: Optional[DependenceDAG],
        k: int,
        d: Optional[int] = None,
        algorithm: str = "",
    ):
        self.dag = dag
        self.k = k
        self.d = d
        self.algorithm = algorithm
        self.ts_off = array("i", [0])
        self.flat_regions = array("H")
        self.flat_nodes = array("i")
        self.max_width = 0
        self.moves: List[List[Move]] = []

    # -- construction -----------------------------------------------------

    def append_timestep(self, regions: Dict[int, Sequence[int]]) -> None:
        """Append one timestep's ``{region: nodes}`` map, as the
        scheduler kernels yield it; empty node lists are skipped."""
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        width = 0
        for r in sorted(regions):
            nodes = regions[r]
            if nodes:
                width += 1
                for node in nodes:
                    flat_r.append(r)
                    flat_n.append(node)
        self.ts_off.append(len(flat_n))
        if width > self.max_width:
            self.max_width = width

    # -- shape -----------------------------------------------------------

    @property
    def length(self) -> int:
        """Schedule length in op timesteps (communication excluded)."""
        return len(self.ts_off) - 1

    @property
    def op_count(self) -> int:
        """Ops placed (``dag.n`` for every scheduler-built schedule)."""
        return len(self.flat_nodes)

    @property
    def total_moves(self) -> int:
        return sum(map(len, self.moves))

    @property
    def teleport_moves(self) -> int:
        return sum(
            1 for epoch in self.moves for m in epoch if m.kind == "teleport"
        )

    @property
    def local_moves(self) -> int:
        return sum(
            1 for epoch in self.moves for m in epoch if m.kind == "local"
        )

    # -- reading -----------------------------------------------------------

    def iter_timesteps(
        self, moves: Optional[Iterable[List[Move]]] = None
    ) -> Iterator[Tuple[List[Move], Regions]]:
        """Yield ``(moves, regions)`` per timestep in one pass over the
        flat arrays: the movement epoch preceding the timestep, then its
        busy regions as ``(region, nodes)``, region-ascending.

        ``moves`` defaults to the attached epochs (an empty list for a
        timestep without). A caller deriving movement on the fly passes
        its epoch iterator instead; it is drained to the end, so a
        generator that bills when exhausted has billed by the time this
        iterator is.
        """
        if moves is None:
            # Fresh empty lists past the attached epochs.
            moves = chain(self.moves, iter(list, None))
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        j = 0
        for epoch, end in zip(moves, islice(self.ts_off, 1, None)):
            regions: Regions = []
            while j < end:
                r = flat_r[j]
                start = j
                j += 1
                while j < end and flat_r[j] == r:
                    j += 1
                regions.append((r, flat_n[start:j].tolist()))
            yield epoch, regions

    def regions_at(self, t: int) -> Regions:
        """Timestep ``t``'s busy regions as ``(region, nodes)``."""
        a, b = self.ts_off[t], self.ts_off[t + 1]
        out: Regions = []
        for r, node in zip(self.flat_regions[a:b], self.flat_nodes[a:b]):
            if out and out[-1][0] == r:
                out[-1][1].append(node)
            else:
                out.append((r, [node]))
        return out

    def placement(self) -> Dict[int, Tuple[int, int]]:
        """Map of node -> (timestep, region)."""
        out: Dict[int, Tuple[int, int]] = {}
        ts_off = self.ts_off
        t = 0
        for j, (r, n) in enumerate(zip(self.flat_regions, self.flat_nodes)):
            while ts_off[t + 1] <= j:
                t += 1
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
        * only regions ``0..k-1`` used, each with at most ``d`` ops;
        * one gate *type* per region per timestep (SIMD semantics);
        * no qubit touched twice within a timestep.

        :meth:`validate` raises on the first violation; the static
        auditor (:func:`repro.analysis.audit_schedule`) drains the
        full stream into diagnostics.
        """
        n = self.dag.n
        placed = self.placement()
        occurrences: Dict[int, int] = {}
        for node in self.flat_nodes:
            occurrences[node] = occurrences.get(node, 0) + 1
        if len(placed) != n:
            missing = set(range(n)) - set(placed)
            yield ScheduleViolation(
                "QL201",
                f"{len(missing)} ops unscheduled "
                f"(e.g. {sorted(missing)[:5]})",
            )
        for node, count in sorted(occurrences.items()):
            if count > 1:
                yield ScheduleViolation(
                    "QL201",
                    f"node {node} scheduled {count} times",
                )
        preds = self.dag.preds
        for node in range(n):
            if node not in placed:
                continue
            t, _ = placed[node]
            for p in preds[node]:
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
        for t, (_, regions) in enumerate(self.iter_timesteps()):
            seen_qubits: Dict[Qubit, int] = {}
            for r, nodes in regions:
                if r >= self.k:
                    yield ScheduleViolation(
                        "QL203",
                        f"timestep {t} uses region {r} (k={self.k})",
                        timestep=t,
                    )
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
