"""End-to-end multi-core toolflow: partition, schedule, compose.

The multi-core driver mirrors :func:`repro.toolflow.compile_and_schedule`
stage for stage — same front-end pass pipeline, same candidate widths,
same coarse composition with the same cost constants — swapping only
the per-leaf scheduling step: each leaf is partitioned over the core
graph and scheduled by :func:`repro.multicore.makespan.schedule_multicore`,
so a leaf's blackbox *length* is the slowest core's schedule length
and its *runtime* is the analytic makespan (intra-core runtime +
attributed inter-core communication).

Guarantee (tested over the whole benchmark registry): with one core —
any topology — every per-leaf schedule, movement list, profile entry,
and the composed program runtime are **bit-identical** to the
single-core pipeline's. The multi-core model is a strict
generalization, not a fork.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..arch.machine import MultiSIMD
from ..core.module import Program
from ..instrument import span
from ..passes.decompose import DecomposeConfig, decompose_program
from ..passes.flatten import DEFAULT_FTH, FlattenResult, flatten_program
from ..passes.manager import PassManager
from ..passes.optimize import optimize_program
from ..passes.resource import estimate_resources
# coarse_length_profile stays bound here as a bench/trace.py hook target
# (the calls themselves go through repro.toolflow).
from ..sched.coarse import best_dim, coarse_length_profile  # noqa: F401
from ..sched.comm import naive_runtime
from ..sched.metrics import (
    comm_speedup,
    hierarchical_critical_path,
    parallel_speedup,
)
from ..toolflow import (
    ModuleProfile,
    SchedulerConfig,
    _candidate_widths,
    _fill_coarse_profile,
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
class MulticoreCompileResult:
    """Everything a multi-core evaluation reads.

    The shape deliberately parallels
    :class:`repro.toolflow.CompileResult`: ``profiles`` carries the
    same per-width blackbox dimensions (so the coarse composition and
    ``best_dim`` selection are shared code), while ``leaf_schedules``
    holds the full-width :class:`MulticoreSchedule` per leaf in place
    of the single-core ``schedules`` map.
    """

    program: Program
    core_machine: MultiSIMD
    config: MulticoreConfig
    scheduler: SchedulerConfig
    profiles: Dict[str, ModuleProfile]
    leaf_schedules: Dict[str, MulticoreSchedule]
    partitions: Dict[str, PartitionReport]
    total_gates: int
    critical_path: int
    flattened_percent: float

    @property
    def graph(self) -> CoreGraph:
        return self.config.graph

    @property
    def entry_profile(self) -> ModuleProfile:
        return self.profiles[self.program.entry]

    @property
    def schedule_length(self) -> int:
        """Whole-program schedule length at the per-core width."""
        _, cost = best_dim(self.entry_profile.length, self.core_machine.k)
        return cost

    @property
    def runtime(self) -> int:
        """Whole-program analytic makespan at the per-core width."""
        _, cost = best_dim(self.entry_profile.runtime, self.core_machine.k)
        return cost

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

    # -- the paper's headline metrics, one level up -------------------

    @property
    def parallel_speedup(self) -> float:
        return parallel_speedup(self.total_gates, self.schedule_length)

    @property
    def cp_speedup(self) -> float:
        return parallel_speedup(self.total_gates, self.critical_path)

    @property
    def comm_aware_speedup(self) -> float:
        return comm_speedup(self.total_gates, self.runtime)

    @property
    def naive_runtime(self) -> int:
        return naive_runtime(self.total_gates)

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
            f"{self.core_machine}, gates={self.total_gates}, "
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

    flat_holder: Dict[str, FlattenResult] = {}

    def _flatten(prog: Program) -> Program:
        result = flatten_program(prog, fth=fth)
        flat_holder["result"] = result
        return result.program

    pipeline = PassManager()
    if optimize:
        pipeline.add("optimize", lambda prog: optimize_program(prog)[0])
    if decompose:
        pipeline.add(
            "decompose",
            lambda prog: decompose_program(prog, decompose_config),
        )
    pipeline.add("flatten", _flatten)
    program = pipeline.run(program)
    flat = flat_holder["result"]

    k, d = core_machine.k, core_machine.d
    capacity = None if d is None else k * d
    widths = _candidate_widths(k)
    profiles: Dict[str, ModuleProfile] = {}
    leaf_schedules: Dict[str, MulticoreSchedule] = {}
    partitions: Dict[str, PartitionReport] = {}

    with span("multicore:schedule"):
        for name in program.topological_order():
            mod = program.module(name)
            profile = ModuleProfile(name, mod.is_leaf)
            if mod.is_leaf:
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
                        body,
                        graph,
                        part,
                        core_machine.with_k(w),
                        scheduler,
                    )
                    profile.length[w] = max(msched.intra_length, 1)
                    profile.runtime[w] = max(msched.makespan, 1)
                    if w == k:
                        leaf_schedules[name] = msched
            else:
                _fill_coarse_profile(profile, mod, profiles, widths)
            profiles[name] = profile

    with span("multicore:estimate"):
        resources = estimate_resources(program)
        cp = hierarchical_critical_path(program)
    return MulticoreCompileResult(
        program=program,
        core_machine=core_machine,
        config=config,
        scheduler=scheduler,
        profiles=profiles,
        leaf_schedules=leaf_schedules,
        partitions=partitions,
        total_gates=resources.total_gates,
        critical_path=max(cp[program.entry], 1),
        flattened_percent=flat.percent_flattened,
    )
