"""Discrete-event execution of multi-core schedules.

Each core's schedule runs on the ordinary single-core engine
(:func:`repro.engine.run_schedule`) — its own clock, its own EPR pool,
its own stall attribution. The interconnect then runs the inter-core
epochs against per-link EPR pools (:class:`repro.engine.state.
InterconnectState`), stalling whenever a link's pair generation lags
its load.

The invariant, one level up from the engine's:

    realized == analytic makespan + attributed stalls

holds **exactly**, with the stall breakdown split as

* ``intra`` — the slowest core's realized runtime minus the slowest
  core's analytic runtime (non-negative: ``max(a_c + s_c) >=
  max(a_c)``);
* ``intercore`` — cycles spent waiting for interconnect link pools.

Under an ideal config both terms are zero and the realized runtime
equals :attr:`MulticoreSchedule.makespan` cycle for cycle. A whole
program runs on the engine's own bottom-up walk, with
:func:`run_multicore_schedule` as its leaf runner
(:func:`execute_multicore_result`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..engine.config import EngineConfig
from ..engine.executor import (
    EngineError,
    EngineResult,
    _busy_fraction,
    _execute_hierarchy,
    _HierarchicalExecution,
    run_schedule,
)
from ..engine.faults import FaultLog
from ..engine.state import InterconnectState
from ..engine.trace import EventTrace
from ..instrument import span
from ..sched.coarse import CoarseResult
# schedule_coarse stays bound here as a bench/trace.py hook target (the
# calls themselves go through repro.engine.executor).
from ..sched.coarse import schedule_coarse  # noqa: F401
from .toolflow import MulticoreCompileResult
from .makespan import MulticoreSchedule

__all__ = [
    "MulticoreStalls",
    "MulticoreEngineResult",
    "MulticoreExecution",
    "run_multicore_schedule",
    "execute_multicore_result",
]


@dataclass
class MulticoreStalls:
    """Added cycles by cause, one level above the engine's breakdown.

    Attributes:
        intra: slowest-core realized minus slowest-core analytic (the
            share of per-core engine stalls that lands on the
            makespan-critical core).
        intercore: waiting for interconnect link EPR generation.
    """

    intra: int = 0
    intercore: int = 0

    @property
    def total(self) -> int:
        return self.intra + self.intercore

    def merge(self, other: "MulticoreStalls") -> None:
        self.intra += other.intra
        self.intercore += other.intercore

    def to_dict(self) -> Dict[str, int]:
        return {
            "intra": self.intra,
            "intercore": self.intercore,
            "total": self.total,
        }


@dataclass
class MulticoreEngineResult:
    """Outcome of executing one leaf's multi-core schedule.

    Attributes:
        module: scope label.
        cores: core count of the interconnect.
        realized_runtime: realized makespan (slowest core + realized
            interconnect phase).
        analytic_runtime: :attr:`MulticoreSchedule.makespan`.
        intra_realized / intra_analytic: the per-core phase, realized
            and analytic (max over cores).
        intercore_cycles: analytic interconnect cycles.
        stalls: ``realized == analytic + stalls.total`` exactly.
        core_results: per-core single-core engine results.
        link_pairs: interconnect EPR pairs consumed per link.
        interconnect_trace: inter-core epoch/stall events (``None``
            when trace collection is off).
        fault_log: merged over the per-core runs.
    """

    module: str
    cores: int
    realized_runtime: int
    analytic_runtime: int
    intra_realized: int
    intra_analytic: int
    intercore_cycles: int
    stalls: MulticoreStalls
    core_results: Dict[int, EngineResult]
    link_pairs: Dict[str, int]
    interconnect_trace: Optional[EventTrace] = None
    fault_log: FaultLog = field(default_factory=FaultLog)

    @property
    def decomposition_ok(self) -> bool:
        """The load-bearing invariant, checked."""
        return (
            self.realized_runtime
            == self.analytic_runtime + self.stalls.total
        )

    @property
    def intercore_pairs(self) -> int:
        return sum(self.link_pairs.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "cores": self.cores,
            "realized_runtime": self.realized_runtime,
            "analytic_runtime": self.analytic_runtime,
            "intra_realized": self.intra_realized,
            "intra_analytic": self.intra_analytic,
            "intercore_cycles": self.intercore_cycles,
            "stalls": self.stalls.to_dict(),
            "decomposition_ok": self.decomposition_ok,
            "intercore_pairs": self.intercore_pairs,
            "link_pairs": self.link_pairs,
            "core_results": {
                str(c): r.to_dict()
                for c, r in sorted(self.core_results.items())
            },
            "faults": self.fault_log.to_dict(),
        }


def run_multicore_schedule(
    msched: MulticoreSchedule,
    config: Optional[EngineConfig] = None,
    link_epr_rate: float = math.inf,
    scope: str = "",
    preflight: bool = True,
) -> MulticoreEngineResult:
    """Execute one leaf's multi-core schedule.

    Args:
        msched: the schedule
            (:func:`repro.multicore.makespan.schedule_multicore`).
        config: engine knobs, applied to every core's run.
        link_epr_rate: interconnect pair generation rate per link.
        scope: label for traces / fault streams.
        preflight: replay-validate each core schedule first.

    Raises:
        PreflightError: a core schedule failed preflight replay.
    """
    config = config or EngineConfig()
    scope = scope or "multicore"
    stalls = MulticoreStalls()
    fault_log = FaultLog(seed=config.seed, scope=scope)
    core_results: Dict[int, EngineResult] = {}

    with span("multicore:execute"):
        intra_realized = 0
        intra_analytic = 0
        for core in msched.occupied_cores:
            run = run_schedule(
                msched.core_schedules[core],
                msched.core_machine,
                config=config,
                scope=f"{scope}@core{core}",
                preflight=preflight,
            )
            if run.trace is not None:
                run.trace.core = core
            core_results[core] = run
            fault_log.merge(run.fault_log)
            intra_realized = max(intra_realized, run.realized_runtime)
            intra_analytic = max(intra_analytic, run.analytic_runtime)
        stalls.intra = intra_realized - intra_analytic

        # The interconnect phase: epochs run serially after the cores
        # finish (the same serialization the analytic makespan bills),
        # each waiting for its slowest link's pool.
        interconnect = InterconnectState(
            ((a, b) for a, b, _ in msched.graph.edges),
            epr_rate=link_epr_rate,
        )
        trace = (
            EventTrace(f"{scope}:interconnect")
            if config.collect_trace
            else None
        )
        clock = intra_realized
        for epoch in msched.epochs:
            wait = interconnect.stall_for(epoch.link_loads, clock)
            if wait:
                stalls.intercore += wait
                if trace is not None:
                    trace.emit(
                        "intercore-epr-stall", "stall", clock, wait,
                        "interconnect",
                        pairs=sum(epoch.link_loads.values()),
                    )
                clock += wait
            if trace is not None:
                trace.emit(
                    "intercore-epoch", "move", clock, epoch.cycles,
                    "interconnect",
                    node=epoch.node,
                    dst_core=epoch.core,
                    transfers=len(epoch.transfers),
                    rounds=epoch.rounds,
                )
            interconnect.consume(epoch.link_loads)
            clock += epoch.cycles

    return MulticoreEngineResult(
        module=scope,
        cores=msched.graph.cores,
        realized_runtime=clock,
        analytic_runtime=msched.makespan,
        intra_realized=intra_realized,
        intra_analytic=intra_analytic,
        intercore_cycles=msched.intercore_cycles,
        stalls=stalls,
        core_results=core_results,
        link_pairs=interconnect.link_pairs_labels(),
        interconnect_trace=trace,
        fault_log=fault_log,
    )


@dataclass
class MulticoreExecution(_HierarchicalExecution):
    """Hierarchical execution of a whole multi-core compile result.

    The same bottom-up walk as :class:`repro.engine.ProgramExecution`
    with another leaf runner: leaves run on the multi-core engine,
    realized leaf makespans replace the analytic width-``k`` blackbox
    dimensions, and non-leaf modules are re-coarse-scheduled bottom-up.
    ``ideal_match`` is expected under an ideal config and an infinite
    link rate.
    """

    entry: str
    cores: int
    realized_runtime: int
    analytic_runtime: int
    leaves: Dict[str, MulticoreEngineResult]
    coarse: Dict[str, CoarseResult]
    coarse_traces: Dict[str, EventTrace]
    realized: Dict[str, int]
    stalls: MulticoreStalls
    fault_log: FaultLog
    config: EngineConfig
    result: MulticoreCompileResult

    @property
    def decomposition_ok(self) -> bool:
        """Every leaf satisfies realized == analytic + stalls."""
        return all(
            r.decomposition_ok for r in self.leaves.values()
        )

    def metrics(self) -> Dict[str, Any]:
        """Flat engine columns for CLI JSON output.

        Reuses the single-core ``engine_*`` names where the meaning
        carries over; the multi-core split is reported as
        ``engine_stall_intra`` / ``engine_stall_intercore``
        (``engine_stall_cycles`` is their sum). The inter-core stall
        is EPR-driven, so it doubles as ``engine_stall_epr``.
        """
        per_core = self._core_runs()
        return {
            "engine_runtime": self.realized_runtime,
            "engine_analytic_runtime": self.analytic_runtime,
            "engine_stall_cycles": self.stalls.total,
            "engine_stall_epr": self.stalls.intercore,
            "engine_stall_bandwidth": 0,
            "engine_stall_fault": sum(
                r.stalls.fault for r in per_core
            ),
            "engine_utilization": round(self.utilization, 6),
            "engine_teleport_rounds": sum(
                r.teleport_rounds for r in per_core
            ),
            "engine_faults": self.fault_log.total_events,
            "engine_stall_intra": self.stalls.intra,
            "engine_stall_intercore": self.stalls.intercore,
            "engine_decomposition_ok": int(self.decomposition_ok),
        }

    def _core_runs(self) -> List[EngineResult]:
        return [
            r
            for leaf in self.leaves.values()
            for r in leaf.core_results.values()
        ]

    @property
    def utilization(self) -> float:
        return _busy_fraction(self._core_runs())

    def to_trace_payload(self) -> Dict[str, Any]:
        """The merged ``repro.trace/1`` document (one lane per core in
        the Chrome export)."""
        sections: List[Tuple[str, EventTrace]] = []
        for name in sorted(self.leaves):
            leaf = self.leaves[name]
            for core in sorted(leaf.core_results):
                run = leaf.core_results[core]
                if run.trace is not None:
                    sections.append((name, run.trace))
            if leaf.interconnect_trace is not None:
                sections.append((name, leaf.interconnect_trace))
        return self._trace_payload(
            sections,
            self.result.machine,
            cores=self.cores,
            topology=self.result.graph.name,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry": self.entry,
            "cores": self.cores,
            "topology": self.result.graph.to_dict(),
            "realized_runtime": self.realized_runtime,
            "analytic_runtime": self.analytic_runtime,
            "ideal_match": self.ideal_match,
            "decomposition_ok": self.decomposition_ok,
            "stalls": self.stalls.to_dict(),
            "utilization": round(self.utilization, 6),
            "engine_config": self.config.to_dict(),
            "modules": self._modules_dict(),
            "faults": self.fault_log.to_dict(),
        }


def execute_multicore_result(
    result: MulticoreCompileResult,
    config: Optional[EngineConfig] = None,
    preflight: bool = True,
) -> MulticoreExecution:
    """Execute a whole multi-core compile result, hierarchically: the
    engine's bottom-up walk, with :func:`run_multicore_schedule` as the
    leaf runner.

    Raises:
        EngineError: the result carries no leaf schedules.
        PreflightError: a core schedule failed preflight replay.
    """
    config = config or EngineConfig()
    if not result.leaf_schedules:
        raise EngineError(
            "multicore compile result has no retained leaf schedules"
        )

    def run_leaf(name: str) -> MulticoreEngineResult:
        msched = result.leaf_schedules.get(name)
        if msched is None:
            raise EngineError(
                f"no retained multicore schedule for leaf "
                f"module {name!r}"
            )
        return run_multicore_schedule(
            msched,
            config=config,
            link_epr_rate=result.config.link_epr_rate,
            scope=name,
            preflight=preflight,
        )

    walk = _execute_hierarchy(
        result, config, run_leaf, MulticoreStalls(), "multicore:coarse"
    )
    return MulticoreExecution(
        cores=result.graph.cores, result=result, **walk
    )
