"""End-to-end multi-core toolflow: partition, schedule, compose.

The multi-core driver *is* :func:`repro.toolflow.compile_and_schedule`
with another leaf step: it runs the same front end, candidate widths,
hierarchy walk and coarse composition (the private helpers of
:mod:`repro.toolflow`), and only schedules each leaf differently — the
leaf is partitioned over the core graph and scheduled by
:func:`repro.multicore.makespan.schedule_multicore`, so its blackbox
*length* is the slowest core's schedule length and its *runtime* is the
analytic makespan (intra-core runtime + attributed inter-core
communication).

Guarantee (tested over the whole benchmark registry): with one core —
any topology — every per-leaf schedule, movement list, profile entry,
and the composed program runtime are **bit-identical** to the
single-core pipeline's. The multi-core model is a strict
generalization, not a fork.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..arch.machine import MultiSIMD
from ..core.module import Module, Program
from ..passes.decompose import DecomposeConfig
from ..passes.flatten import DEFAULT_FTH
# These stay bound here as bench/trace.py hook targets (the calls
# themselves go through repro.toolflow).
from ..passes.decompose import decompose_program  # noqa: F401
from ..passes.flatten import flatten_program  # noqa: F401
from ..passes.resource import estimate_resources  # noqa: F401
from ..sched.coarse import coarse_length_profile  # noqa: F401
from ..sched.metrics import hierarchical_critical_path  # noqa: F401
from ..toolflow import (
    CompileResult,
    ModuleProfile,
    SchedulerConfig,
    _candidate_widths,
    _estimate,
    _front_end,
    _profile_modules,
)
from .makespan import MulticoreSchedule, schedule_multicore
from .partition import PartitionReport, partition_qubits
from .topology import CoreGraph

__all__ = [
    "MulticoreConfig",
    "MulticoreCompileResult",
    "compile_and_schedule_multicore",
]


@dataclass(frozen=True)
class MulticoreConfig:
    """Multi-core compilation/execution knobs.

    Attributes:
        graph: the core interconnect.
        seed: partitioner determinism seed.
        refine: run the partitioner's local-search pass.
        link_epr_rate: interconnect EPR generation rate per link in
            pairs/cycle (``inf`` = just-in-time, never stalls) — used
            by the execution engine, not the static pipeline.
    """

    graph: CoreGraph
    seed: int = 0
    refine: bool = True
    link_epr_rate: float = math.inf

    def __post_init__(self) -> None:
        if self.link_epr_rate <= 0:
            raise ValueError(
                f"link_epr_rate must be positive, got {self.link_epr_rate}"
            )

    @property
    def cores(self) -> int:
        return self.graph.cores

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph.to_dict(),
            "seed": self.seed,
            "refine": self.refine,
            "link_epr_rate": (
                "inf"
                if math.isinf(self.link_epr_rate)
                else self.link_epr_rate
            ),
        }


@dataclass
class MulticoreCompileResult(CompileResult):
    """A :class:`repro.toolflow.CompileResult` whose leaves were
    scheduled over a core graph.

    ``machine`` is the *per-core* machine (:attr:`core_machine` is its
    multi-core name), so the inherited headline properties —
    ``schedule_length``, ``runtime`` (the analytic makespan), the
    speedups — read the profiles at the per-core width. ``schedules``
    is empty: ``leaf_schedules`` holds the full-width
    :class:`MulticoreSchedule` per leaf instead. ``config`` is always
    set by :func:`compile_and_schedule_multicore`.
    """

    config: Optional[MulticoreConfig] = None
    leaf_schedules: Dict[str, MulticoreSchedule] = field(
        default_factory=dict
    )
    partitions: Dict[str, PartitionReport] = field(default_factory=dict)

    @property
    def core_machine(self) -> MultiSIMD:
        """The per-core machine (alias of ``machine``)."""
        return self.machine

    @property
    def graph(self) -> CoreGraph:
        return self.config.graph

    @property
    def makespan(self) -> int:
        """Alias of :attr:`runtime` under its multi-core name."""
        return self.runtime

    @property
    def intercore_cycles(self) -> int:
        """Attributed inter-core communication, summed over leaves."""
        return sum(
            s.intercore_cycles for s in self.leaf_schedules.values()
        )

    @property
    def intercore_teleports(self) -> int:
        return sum(
            s.intercore_teleports for s in self.leaf_schedules.values()
        )

    @property
    def intercore_pairs(self) -> int:
        return sum(
            s.intercore_pairs for s in self.leaf_schedules.values()
        )

    @property
    def cut_weight(self) -> int:
        return sum(p.cut_weight for p in self.partitions.values())

    @property
    def max_hops(self) -> int:
        return max(
            (s.max_hops for s in self.leaf_schedules.values()), default=0
        )

    def metrics(self) -> Dict[str, Any]:
        """Flat multi-core columns for CLI JSON output."""
        return {
            "multicore_cores": self.graph.cores,
            "multicore_makespan": self.runtime,
            "multicore_intercore_cycles": self.intercore_cycles,
            "multicore_intercore_teleports": self.intercore_teleports,
            "multicore_intercore_pairs": self.intercore_pairs,
            "multicore_cut_weight": self.cut_weight,
            "multicore_max_hops": self.max_hops,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MulticoreCompileResult({self.program.entry!r}, "
            f"{self.scheduler.algorithm}, {self.graph}, "
            f"{self.machine}, gates={self.total_gates}, "
            f"makespan={self.runtime})"
        )


def compile_and_schedule_multicore(
    program: Program,
    core_machine: MultiSIMD,
    config: MulticoreConfig,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
) -> MulticoreCompileResult:
    """Run the multi-core toolflow on ``program``.

    Args:
        program: hierarchical input program.
        core_machine: the *per-core* Multi-SIMD(k,d) configuration —
            the machine has ``config.cores`` of these.
        config: core graph and partitioner knobs.
        scheduler: leaf scheduler selection (default LPFS, the paper's
            configuration).
        fth / decompose / decompose_config / optimize: identical to
            :func:`repro.toolflow.compile_and_schedule`.

    Raises:
        PartitionError: a leaf's qubits exceed the total capacity
            ``cores * k * d``.
    """
    scheduler = scheduler or SchedulerConfig()
    graph = config.graph
    program, flat = _front_end(
        program, fth, decompose, decompose_config, optimize
    )

    k, d = core_machine.k, core_machine.d
    capacity = None if d is None else k * d
    widths = _candidate_widths(k)
    leaf_schedules: Dict[str, MulticoreSchedule] = {}
    partitions: Dict[str, PartitionReport] = {}

    def leaf_step(name: str, mod: Module, profile: ModuleProfile) -> None:
        body = list(mod.body)
        part = partition_qubits(
            body,
            graph,
            capacity=capacity,
            seed=config.seed,
            refine=config.refine,
        )
        partitions[name] = part
        for w in widths:
            msched = schedule_multicore(
                body, graph, part, core_machine.with_k(w), scheduler
            )
            profile.length[w] = max(msched.intra_length, 1)
            profile.runtime[w] = max(msched.makespan, 1)
            if w == k:
                leaf_schedules[name] = msched

    profiles = _profile_modules(program, widths, leaf_step, "multicore")
    total_gates, critical_path = _estimate(program, "multicore")
    return MulticoreCompileResult(
        program=program,
        machine=core_machine,
        scheduler=scheduler,
        profiles=profiles,
        schedules={},
        total_gates=total_gates,
        critical_path=critical_path,
        flattened_percent=flat.percent_flattened,
        config=config,
        leaf_schedules=leaf_schedules,
        partitions=partitions,
    )
