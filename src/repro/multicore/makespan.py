"""Inter-core makespan scheduling layered on the leaf schedulers.

One leaf module, one partition, one core graph. Each core receives the
sub-list of statements homed on it (home core = majority vote of the
operand home cores, ties to the lowest index) **in original program
order**, is scheduled independently with the existing fine-grained
schedulers (sequential / RCP / LPFS), and billed the ordinary
single-core movement model. On top, qubits that interact across cores
are teleported over the interconnect: the statement stream is walked
in program order with a dynamic residency map, and every statement
whose operands are scattered triggers one *inter-core epoch* gathering
them at its home core.

Hop billing (Section 2.3's linear-in-distance teleport model, lifted
to the interconnect): a transfer crossing ``h`` links consumes one EPR
pair per link and needs ``h`` serial swap-teleport rounds; an epoch's
rounds are ``max(longest transfer's hops, busiest link's
ceil(load / bandwidth))`` and its cycles are ``TELEPORT_CYCLES *
rounds``.

The analytic makespan decomposes exactly:

    makespan == intra_runtime + intercore_cycles

where ``intra_runtime`` is the slowest core's communication-aware
runtime and ``intercore_cycles`` the summed inter-core epoch cost —
the same invariant discipline the engine applies to realized runtimes
(``realized == analytic + stalls``, see
:mod:`repro.multicore.execute`).

With one core (any topology) nothing crosses the interconnect: the
single core's schedule, movement, and runtime are bit-identical to
the single-core pipeline's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..arch.machine import TELEPORT_CYCLES, MultiSIMD
from ..core.dag import DependenceDAG
from ..core.operation import Operation, Statement
from ..core.qubits import Qubit
from ..instrument import span
from ..sched.comm import CommStats, derive_movement
from ..sched.types import Schedule
from .partition import PartitionReport
from .topology import CoreGraph, Link

__all__ = [
    "IntercoreTransfer",
    "IntercoreEpoch",
    "MulticoreSchedule",
    "statement_cores",
    "schedule_multicore",
]


@dataclass(frozen=True)
class IntercoreTransfer:
    """One qubit crossing the interconnect.

    Attributes:
        qubit: the qubit moved.
        src / dst: source and destination core.
        hops: links crossed (== EPR pairs consumed).
        route: the links, in traversal order.
    """

    qubit: Qubit
    src: int
    dst: int
    hops: int
    route: Tuple[Link, ...]


@dataclass(frozen=True)
class IntercoreEpoch:
    """One inter-core movement epoch (gathering one statement's
    operands at its home core).

    Attributes:
        node: index of the triggering statement.
        core: the statement's home core (transfer destination).
        transfers: the qubits moved.
        rounds: serial teleport rounds (hop depth vs. link congestion).
        cycles: ``TELEPORT_CYCLES * rounds``.
        link_loads: EPR pairs routed over each link this epoch.
    """

    node: int
    core: int
    transfers: Tuple[IntercoreTransfer, ...]
    rounds: int
    cycles: int
    link_loads: Dict[Link, int] = field(default_factory=dict)


def statement_cores(
    statements: Sequence[Statement],
    assignment: Dict[Qubit, int],
) -> List[int]:
    """Home core per statement: the majority core of its operands,
    ties broken toward the lowest core index. Operand-free statements
    (none exist today) default to core 0."""
    homes: List[int] = []
    for stmt in statements:
        operands = (
            stmt.qubits if isinstance(stmt, Operation) else stmt.args
        )
        votes: Dict[int, int] = {}
        for q in operands:
            core = assignment[q]
            votes[core] = votes.get(core, 0) + 1
        if not votes:
            homes.append(0)
            continue
        homes.append(
            min(votes, key=lambda c: (-votes[c], c))
        )
    return homes


@dataclass
class MulticoreSchedule:
    """A leaf module scheduled over several Multi-SIMD cores.

    Attributes:
        graph: the core interconnect.
        partition: the qubit-to-core partition used.
        core_machine: the per-core machine the schedules target.
        statement_core: home core per statement (program order).
        core_schedules: per-core fine schedules (cores with no
            statements are absent).
        core_comm: per-core intra-core movement stats.
        epochs: inter-core movement epochs, in program order.
        algorithm: the leaf scheduler used.
    """

    graph: CoreGraph
    partition: PartitionReport
    core_machine: MultiSIMD
    statement_core: List[int]
    core_schedules: Dict[int, Schedule]
    core_comm: Dict[int, CommStats]
    epochs: List[IntercoreEpoch]
    algorithm: str = ""

    # -- the makespan decomposition -----------------------------------

    @property
    def intra_runtime(self) -> int:
        """The slowest core's communication-aware runtime."""
        return max(
            (stats.runtime for stats in self.core_comm.values()),
            default=0,
        )

    @property
    def intercore_cycles(self) -> int:
        """Total attributed inter-core communication."""
        return sum(e.cycles for e in self.epochs)

    @property
    def makespan(self) -> int:
        """Analytic makespan: intra-core runtime + attributed
        inter-core communication (exact by construction)."""
        return self.intra_runtime + self.intercore_cycles

    @property
    def intra_length(self) -> int:
        """The slowest core's communication-free schedule length."""
        return max(
            (sched.length for sched in self.core_schedules.values()),
            default=0,
        )

    # -- movement aggregates ------------------------------------------

    @property
    def intercore_teleports(self) -> int:
        return sum(len(e.transfers) for e in self.epochs)

    @property
    def intercore_pairs(self) -> int:
        """EPR pairs consumed on the interconnect (one per hop)."""
        return sum(t.hops for e in self.epochs for t in e.transfers)

    @property
    def max_hops(self) -> int:
        return max(
            (t.hops for e in self.epochs for t in e.transfers),
            default=0,
        )

    @property
    def min_cut_hops(self) -> int:
        """Smallest hop distance any inter-core transfer crosses (1
        when nothing crosses — the single-core comm floor)."""
        hops = [t.hops for e in self.epochs for t in e.transfers]
        return min(hops) if hops else 1

    def link_pairs(self) -> Dict[Link, int]:
        """EPR pairs per link, summed over every epoch."""
        out: Dict[Link, int] = {}
        for e in self.epochs:
            for link, pairs in e.link_loads.items():
                out[link] = out.get(link, 0) + pairs
        return out

    @property
    def teleports(self) -> int:
        """All teleports: per-core intra moves plus interconnect
        transfers."""
        return (
            sum(s.teleports for s in self.core_comm.values())
            + self.intercore_teleports
        )

    @property
    def occupied_cores(self) -> List[int]:
        return sorted(self.core_schedules)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.graph.to_dict(),
            "algorithm": self.algorithm,
            "makespan": self.makespan,
            "intra_runtime": self.intra_runtime,
            "intercore_cycles": self.intercore_cycles,
            "intra_length": self.intra_length,
            "intercore_teleports": self.intercore_teleports,
            "intercore_pairs": self.intercore_pairs,
            "max_hops": self.max_hops,
            "epochs": len(self.epochs),
            "cores": {
                str(core): {
                    "ops": self.core_schedules[core].op_count,
                    "length": self.core_schedules[core].length,
                    "runtime": self.core_comm[core].runtime,
                    "teleports": self.core_comm[core].teleports,
                    "local_moves": self.core_comm[core].local_moves,
                }
                for core in self.occupied_cores
            },
            "link_pairs": {
                f"{a}-{b}": pairs
                for (a, b), pairs in sorted(self.link_pairs().items())
            },
            "partition": self.partition.to_dict(),
        }


def _intercore_epochs(
    statements: Sequence[Statement],
    homes: Sequence[int],
    assignment: Dict[Qubit, int],
    graph: CoreGraph,
) -> List[IntercoreEpoch]:
    """Walk the statement stream deriving inter-core movement.

    Residency starts at the partition's homes and migrates with every
    transfer (qubits stay where they were gathered until a later
    statement pulls them elsewhere — the cheapest consistent policy
    under the no-cloning chain model).
    """
    location: Dict[Qubit, int] = dict(assignment)
    epochs: List[IntercoreEpoch] = []
    for node, stmt in enumerate(statements):
        operands = (
            stmt.qubits if isinstance(stmt, Operation) else stmt.args
        )
        core = homes[node]
        transfers: List[IntercoreTransfer] = []
        link_loads: Dict[Link, int] = {}
        for q in operands:
            src = location[q]
            if src == core:
                continue
            route = tuple(graph.shortest_path(src, core))
            transfers.append(
                IntercoreTransfer(
                    qubit=q,
                    src=src,
                    dst=core,
                    hops=len(route),
                    route=route,
                )
            )
            for link in route:
                link_loads[link] = link_loads.get(link, 0) + 1
            location[q] = core
        if not transfers:
            continue
        rounds = max(t.hops for t in transfers)
        for link, load in link_loads.items():
            bw = graph.bandwidth(*link)
            rounds = max(rounds, math.ceil(load / bw))
        epochs.append(
            IntercoreEpoch(
                node=node,
                core=core,
                transfers=tuple(transfers),
                rounds=rounds,
                cycles=TELEPORT_CYCLES * rounds,
                link_loads=link_loads,
            )
        )
    return epochs


def schedule_multicore(
    statements: Sequence[Statement],
    graph: CoreGraph,
    partition: PartitionReport,
    core_machine: MultiSIMD,
    scheduler: Any,
) -> MulticoreSchedule:
    """Schedule one leaf statement list over ``graph``'s cores.

    Args:
        statements: the leaf module body (operations only after
            flattening).
        graph: the core interconnect.
        partition: qubit-to-core assignment
            (:func:`repro.multicore.partition.partition_qubits`).
        core_machine: the per-core Multi-SIMD(k,d) machine; per-core
            schedules are built at its ``k`` and billed against it.
        scheduler: a :class:`repro.toolflow.SchedulerConfig` (typed as
            ``Any`` to keep this module importable below the toolflow).
    """
    with span("multicore:makespan"):
        homes = statement_cores(statements, partition.assignment)
        per_core: Dict[int, List[Statement]] = {}
        for stmt, core in zip(statements, homes):
            per_core.setdefault(core, []).append(stmt)

        core_schedules: Dict[int, Schedule] = {}
        core_comm: Dict[int, CommStats] = {}
        for core in sorted(per_core):
            dag = DependenceDAG(per_core[core])
            sched = scheduler.schedule(
                dag, k=core_machine.k, d=core_machine.d
            )
            core_schedules[core] = sched
            core_comm[core] = derive_movement(sched, core_machine)
            dag.release_columns()

        epochs = _intercore_epochs(
            statements, homes, partition.assignment, graph
        )
    return MulticoreSchedule(
        graph=graph,
        partition=partition,
        core_machine=core_machine,
        statement_core=homes,
        core_schedules=core_schedules,
        core_comm=core_comm,
        epochs=epochs,
        algorithm=getattr(scheduler, "algorithm", ""),
    )
