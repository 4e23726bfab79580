"""Discrete-event execution of movement-annotated schedules.

The static pipeline *plans*: schedules, movement, EPR pre-distribution,
NUMA billing. This module *runs the plan* on a stateful
Multi-SIMD(k,d) machine model, advancing a cycle clock through every
movement epoch and gate timestep while tracking qubit residency, EPR
pool levels, and region activity.

The load-bearing invariant (tested across the whole benchmark
registry): with faults off, infinite EPR generation rate and unbounded
bandwidth, the realized runtime **equals** the analytic runtime
(``CommStats.runtime`` per leaf; the coarse-composed
``profiles[entry].runtime[k]`` per program) exactly. Each tightened
resource — finite generation rate, NUMA channel bandwidth / bank
egress, injected faults — only ever *adds* stall cycles, and the
stall breakdown attributes every added cycle to its cause:

* ``epr`` — waiting for pair generation to catch up with demand
  (agrees exactly with :func:`repro.arch.plan_epr_distribution`);
* ``bandwidth`` — extra teleport rounds from NUMA serialization
  (agrees exactly with :func:`repro.arch.numa_runtime`);
* ``fault`` — regenerated EPR attempts at finite rate plus transient
  region downtime.

Programs execute hierarchically, mirroring the compile pipeline: each
leaf schedule runs on the engine, realized leaf runtimes are fed back
into the coarse scheduler as blackbox dimensions, and the entry
module's coarse length becomes the program's realized runtime. The
walk is shared: multi-core execution
(:func:`repro.multicore.execute_multicore_result`) runs it with its own
leaf runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    TELEPORT_CYCLES,
    epoch_cycles,
    split_epoch,
)
from ..arch.numa import assign_banks, epoch_teleport_loads, serialize_rounds
from ..core.operation import Operation
from ..core.qubits import Qubit
from ..instrument import span
from ..sched.coarse import CoarseResult, schedule_coarse
from ..sched.replay import replay_schedule
from ..sched.types import Schedule
from ..toolflow import CompileResult
from .config import EngineConfig
from .faults import FaultConfig, FaultEvent, FaultInjector, FaultLog
from .state import MachineState
from .trace import EventTrace, build_payload

__all__ = [
    "EngineError",
    "PreflightError",
    "StallBreakdown",
    "EngineResult",
    "ProgramExecution",
    "run_schedule",
    "run_schedule_stream",
    "execute_result",
]


class EngineError(Exception):
    """The engine cannot execute the given schedule / compile result."""


class PreflightError(EngineError):
    """Preflight replay found physical-invariant violations.

    Attributes:
        violations: every ``(code, message, timestep)`` collected by
            :func:`repro.sched.replay.replay_schedule`.
    """

    def __init__(
        self, scope: str, violations: List[Tuple[str, str, int]]
    ) -> None:
        self.scope = scope
        self.violations = violations
        codes = sorted({code for code, _, _ in violations})
        super().__init__(
            f"preflight replay of {scope!r} found "
            f"{len(violations)} violation(s) ({', '.join(codes)}); "
            "refusing to execute (pass --no-preflight to override)"
        )


@dataclass
class StallBreakdown:
    """Cycles the machine spent waiting, by cause.

    Attributes:
        epr: waiting for EPR pair generation (demand outran the rate).
        bandwidth: extra teleport rounds forced by NUMA channel /
            bank-egress limits.
        fault: regenerated EPR attempts (at finite rate) and transient
            region downtime.
    """

    epr: int = 0
    bandwidth: int = 0
    fault: int = 0

    @property
    def total(self) -> int:
        return self.epr + self.bandwidth + self.fault

    def merge(self, other: "StallBreakdown") -> None:
        self.epr += other.epr
        self.bandwidth += other.bandwidth
        self.fault += other.fault

    def to_dict(self) -> Dict[str, int]:
        return {
            "epr": self.epr,
            "bandwidth": self.bandwidth,
            "fault": self.fault,
            "total": self.total,
        }


@dataclass
class EngineResult:
    """Outcome of executing one leaf schedule.

    Attributes:
        module: scope label (module name).
        k: region count executed at.
        realized_runtime: engine clock at completion.
        analytic_runtime: the schedule's static cost (gate timesteps +
            unserialized movement epochs) — equals ``realized_runtime``
            under an ideal config.
        gate_cycles / comm_cycles: the analytic split.
        stalls: added cycles by cause (``realized = analytic +
            stalls.total``).
        teleport_epochs / local_epochs / teleport_rounds: epoch tallies.
        epr_pairs: total pairs consumed.
        channel_pairs: pairs per ``"src->dst"`` channel.
        utilization: per-region busy fraction of the realized runtime.
        ops_executed: gates run, summed over regions.
        trace: the event trace (``None`` when collection is off).
        fault_log: every injected fault.
        preflight_violations: violations tolerated by preflight
            (``None`` when preflight was skipped).
    """

    module: str
    k: int
    realized_runtime: int
    analytic_runtime: int
    gate_cycles: int
    comm_cycles: int
    stalls: StallBreakdown
    teleport_epochs: int
    local_epochs: int
    teleport_rounds: int
    epr_pairs: int
    channel_pairs: Dict[str, int]
    utilization: Dict[int, float]
    ops_executed: int
    trace: Optional[EventTrace] = None
    fault_log: FaultLog = field(default_factory=FaultLog)
    preflight_violations: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "k": self.k,
            "realized_runtime": self.realized_runtime,
            "analytic_runtime": self.analytic_runtime,
            "gate_cycles": self.gate_cycles,
            "comm_cycles": self.comm_cycles,
            "stalls": self.stalls.to_dict(),
            "teleport_epochs": self.teleport_epochs,
            "local_epochs": self.local_epochs,
            "teleport_rounds": self.teleport_rounds,
            "epr_pairs": self.epr_pairs,
            "channel_pairs": self.channel_pairs,
            "utilization": {
                str(r): round(u, 6)
                for r, u in sorted(self.utilization.items())
            },
            "ops_executed": self.ops_executed,
            "faults": self.fault_log.to_dict(),
            "preflight_violations": self.preflight_violations,
        }


def _preflight(
    sched: Schedule, machine: MultiSIMD, scope: str
) -> int:
    """Replay ``sched`` collecting violations; raise on any."""
    violations: List[Tuple[str, str, int]] = []
    with span("engine:preflight"):
        replay_schedule(
            sched,
            machine,
            on_violation=lambda code, msg, t: violations.append(
                (code, msg, t)
            ),
        )
    if violations:
        raise PreflightError(scope, violations)
    return 0


def run_schedule(
    sched: Schedule,
    machine: MultiSIMD,
    config: Optional[EngineConfig] = None,
    scope: str = "",
    preflight: bool = True,
) -> EngineResult:
    """Execute one movement-annotated leaf schedule.

    Args:
        sched: the schedule (moves attached via ``derive_movement``).
        machine: target machine; must offer at least ``sched.k``
            regions.
        config: engine knobs (default: the ideal analytic model).
        scope: label for traces / fault streams (module name).
        preflight: replay-validate first and refuse on violations.

    Raises:
        PreflightError: preflight found QL3xx violations.
        EngineError: the machine is too small for the schedule.
        TypeError: ``sched`` is columnar (``dag`` is ``None``); run it
            with :func:`run_schedule_stream`.
    """
    statements = sched.require_dag().statements
    config = config or EngineConfig()
    scope = scope or (sched.algorithm or "schedule")
    if machine.k < sched.k:
        raise EngineError(
            f"schedule needs {sched.k} regions, machine has {machine.k}"
        )
    violations: Optional[int] = None
    if preflight:
        violations = _preflight(sched, machine, scope)
    bank_of = (
        assign_banks(sched, config.numa)
        if config.numa is not None
        else None
    )
    epochs = (
        (
            moves,
            [
                (r, statements[nodes[0]].gate, len(nodes))
                for r, nodes in regions
            ],
        )
        for moves, regions in sched.iter_timesteps()
    )
    with span("engine:execute"):
        result = _execute_epochs(
            epochs, sched.k, machine, config, scope, bank_of=bank_of
        )
    result.preflight_violations = violations
    return result


def run_schedule_stream(
    epochs,
    k: int,
    machine: MultiSIMD,
    config: Optional[EngineConfig] = None,
    scope: str = "stream",
    sample_every: int = 1,
) -> EngineResult:
    """Execute a schedule delivered epoch-at-a-time.

    The streamed entry point for paper-scale schedules whose movement
    is never held whole: ``epochs`` is an iterable of
    ``(moves, active)`` pairs — one per timestep, movement epoch first
    — where ``active`` lists ``(region, gate_name, op_count)`` per busy
    region. Both :func:`repro.service.stream_io.read_schedule_stream`
    epochs and :func:`repro.sched.stream.iter_schedule_epochs` output
    adapt to this shape in a line each; memory stays one epoch
    regardless of schedule length. It runs the one epoch loop
    :func:`run_schedule` runs, so the two agree cycle for cycle, event
    for event, on the same schedule and config.

    Differences from :func:`run_schedule`, both inherent to not
    holding the full schedule:

    * no preflight (replay validation needs every timestep at once) —
      ``preflight_violations`` is ``None``;
    * no NUMA serialization (:func:`~repro.arch.numa.assign_banks`
      derives bank homes from whole-schedule affinity) — a config with
      ``numa`` set is refused.

    ``sample_every`` thins the *trace* only (gate/move events for one
    timestep in every ``sample_every``; stall and fault events are
    always kept — they are rare and carry the invariant): a 10^7-epoch
    run cannot emit 10^7 trace events, and the realized clock, stall
    breakdown and ``realized = analytic + stalls`` invariant are
    measured identically whatever the sampling.
    """
    config = config or EngineConfig()
    if machine.k < k:
        raise EngineError(
            f"schedule needs {k} regions, machine has {machine.k}"
        )
    if config.numa is not None:
        raise EngineError(
            "streamed execution cannot apply NUMA serialization "
            "(bank assignment needs the full schedule); use "
            "run_schedule on an inflated schedule instead"
        )
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    with span("engine:execute-stream"):
        return _execute_epochs(
            epochs, k, machine, config, scope, sample_every=sample_every
        )


def _execute_epochs(
    epochs,
    k: int,
    machine: MultiSIMD,
    config: EngineConfig,
    scope: str,
    bank_of: Optional[Dict[Qubit, int]] = None,
    sample_every: int = 1,
) -> EngineResult:
    """The epoch loop both entry points run: per timestep, bill the
    movement epoch (EPR stalls and regenerations, NUMA rounds when
    ``bank_of`` is given), apply region downtime, then execute every
    busy region for one gate cycle."""
    fault_config = config.faults or FaultConfig()
    injector = FaultInjector(fault_config, seed=config.seed, scope=scope)
    log = FaultLog(seed=config.seed, scope=scope)
    it = iter(epochs)
    first = next(it, None)
    prestage = (
        sum(1 for m in first[0] if m.kind == "teleport") if first else 0
    )
    state = MachineState(
        k, machine, epr_rate=config.epr_rate, prestage=prestage
    )
    trace = EventTrace(scope) if config.collect_trace else None

    stalls = StallBreakdown()
    gate_cycles = 0
    comm_cycles = 0
    teleport_epochs = 0
    local_epochs = 0
    teleport_rounds = 0

    for t, (moves, active) in enumerate(
        chain((first,), it) if first is not None else ()
    ):
        sampled = trace is not None and t % sample_every == 0
        # --- movement epoch preceding the timestep ----------------------
        teleports, locals_ = split_epoch(moves)
        nt, nl = len(teleports), len(locals_)
        base_cost = epoch_cycles(nt, nl)
        comm_cycles += base_cost
        if nt:
            teleport_epochs += 1
            # Fault injection: failed generation attempts are
            # regenerated; they waste generator throughput.
            attempts = injector.epr_generation_attempts(nt)
            extra = attempts - nt
            if extra:
                log.record(
                    FaultEvent(
                        "epr_regen",
                        cycle=state.clock,
                        timestep=t,
                        count=extra,
                        detail=f"{extra} failed generation "
                        f"attempt(s) for {nt} pair(s)",
                    )
                )
                if trace is not None:
                    trace.emit(
                        "epr-regen", "fault", state.clock, 0,
                        "memory", attempts=extra,
                    )
            # Stall until production covers demand; the part due to
            # regenerated attempts is attributed to faults.
            demand_wait = state.epr.stall_for(nt, state.clock)
            total_wait = state.epr.stall_for(attempts, state.clock)
            fault_wait = total_wait - demand_wait
            if demand_wait and trace is not None:
                trace.emit(
                    "epr-stall", "stall", state.clock,
                    demand_wait, "memory", pairs=nt,
                )
            if fault_wait and trace is not None:
                trace.emit(
                    "fault-stall", "stall",
                    state.clock + demand_wait, fault_wait,
                    "memory", regenerations=extra,
                )
            stalls.epr += demand_wait
            stalls.fault += fault_wait
            state.advance(total_wait)
            # NUMA serialization: oversubscribed channels / bank
            # egress split the epoch into extra teleport rounds.
            rounds = 1
            if bank_of is not None:
                channel_load, bank_load = epoch_teleport_loads(
                    teleports, bank_of, config.numa, k
                )
                rounds = serialize_rounds(
                    channel_load, bank_load, config.numa
                )
            teleport_rounds += rounds
            epoch_cost = epoch_cycles(nt, nl, rounds)
            bandwidth_wait = epoch_cost - base_cost
            if sampled:
                trace.emit(
                    "teleport-epoch", "move", state.clock,
                    base_cost, "memory",
                    pairs=nt, local_moves=nl, rounds=rounds,
                )
            if bandwidth_wait and trace is not None:
                trace.emit(
                    "bandwidth-stall", "stall",
                    state.clock + base_cost, bandwidth_wait,
                    "memory", rounds=rounds,
                )
            stalls.bandwidth += bandwidth_wait
            state.epr.consume(teleports, wasted_attempts=extra)
            state.advance(epoch_cost)
        elif nl:
            local_epochs += 1
            if sampled:
                trace.emit(
                    "local-epoch", "move", state.clock,
                    base_cost, "memory", local_moves=nl,
                )
            state.advance(base_cost)
        # --- transient region downtime ----------------------------------
        if fault_config.region_failure_prob > 0:
            for r, _, _ in active:
                if injector.region_goes_down(r):
                    down = fault_config.region_downtime
                    log.record(
                        FaultEvent(
                            "region_down",
                            cycle=state.clock,
                            timestep=t,
                            region=r,
                            detail=f"region {r} down for "
                            f"{down} cycles",
                        )
                    )
                    log.region_downtime_cycles += down
                    if trace is not None:
                        trace.emit(
                            "region-down", "fault", state.clock,
                            0, f"region{r}",
                        )
                        trace.emit(
                            "fault-stall", "stall", state.clock,
                            down, f"region{r}",
                        )
                    # Lock-step SIMD: a down region stalls the whole
                    # machine, not just its own lane.
                    stalls.fault += down
                    state.advance(down)
        # --- execute the timestep ---------------------------------------
        for r, gate, ops in active:
            errors = injector.sample_gate_errors(ops)
            log.expected_gate_errors += fault_config.gate_error_rate * ops
            if errors:
                log.record(
                    FaultEvent(
                        "gate_error",
                        cycle=state.clock,
                        timestep=t,
                        count=errors,
                        region=r,
                        detail=f"{errors}/{ops} {gate} gate(s) "
                        "errored (corrected)",
                    )
                )
            state.execute_region(r, ops, GATE_CYCLES)
            if sampled:
                args: Dict[str, Any] = {"ops": ops}
                if errors:
                    args["errors"] = errors
                trace.emit(
                    gate, "gate", state.clock, GATE_CYCLES,
                    f"region{r}", **args,
                )
        gate_cycles += GATE_CYCLES
        state.advance(GATE_CYCLES)

    realized = state.clock
    return EngineResult(
        module=scope,
        k=k,
        realized_runtime=realized,
        analytic_runtime=gate_cycles + comm_cycles,
        gate_cycles=gate_cycles,
        comm_cycles=comm_cycles,
        stalls=stalls,
        teleport_epochs=teleport_epochs,
        local_epochs=local_epochs,
        teleport_rounds=teleport_rounds,
        epr_pairs=state.epr.total_pairs,
        channel_pairs=state.channel_pairs_labels(),
        utilization=state.utilization(realized),
        ops_executed=sum(state.ops_executed),
        trace=trace,
        fault_log=log,
    )


def _busy_fraction(runs: List[EngineResult]) -> float:
    """Aggregate busy fraction over ``runs``' region-cycles."""
    busy = sum(sum(r.utilization.values()) * r.realized_runtime for r in runs)
    capacity = sum(r.k * r.realized_runtime for r in runs)
    return busy / capacity if capacity else 0.0


class _HierarchicalExecution:
    """What every hierarchical execution reports the same way."""

    @property
    def ideal_match(self) -> bool:
        """Whether realized == analytic (expected under ideal config)."""
        return self.realized_runtime == self.analytic_runtime

    def _trace_payload(
        self,
        leaf_sections: List[Tuple[str, EventTrace]],
        machine: MultiSIMD,
        **machine_extra: Any,
    ) -> Dict[str, Any]:
        """The merged ``repro.trace/1`` document: ``leaf_sections``,
        then each coarse replay, up to the last cycle any of them
        reaches."""
        sections = leaf_sections + [
            (name, self.coarse_traces[name])
            for name in sorted(self.coarse_traces)
        ]
        horizon = max(
            [self.realized_runtime]
            + [r.realized_runtime for r in self.leaves.values()]
            + [c.total_length for c in self.coarse.values()]
        )
        return build_payload(
            sections,
            runtime=horizon,
            machine={
                "k": machine.k,
                "d": machine.d,
                "local_memory": machine.local_memory,
                **machine_extra,
            },
            stats={
                "entry": self.entry,
                "realized_runtime": self.realized_runtime,
                "analytic_runtime": self.analytic_runtime,
                "modules": len(self.leaves) + len(self.coarse),
                "engine_config": self.config.to_dict(),
                "faults": self.fault_log.total_events,
            },
        )

    def _modules_dict(self) -> Dict[str, Any]:
        return {
            name: self.leaves[name].to_dict()
            if name in self.leaves
            else {
                "module": name,
                "realized_runtime": self.realized[name],
                "coarse": True,
            }
            for name in sorted(self.realized)
        }


@dataclass
class ProgramExecution(_HierarchicalExecution):
    """Hierarchical execution of a whole compile result.

    Attributes:
        entry: entry module name.
        k: machine width executed at.
        realized_runtime: entry module's realized cycles (>= 1, the
            same clamp the compile-time profiles apply).
        analytic_runtime: ``profiles[entry].runtime[k]`` — the static
            prediction the realized runtime is compared against.
        leaves: per-leaf-module engine results.
        coarse: per-non-leaf-module coarse replays over realized
            blackbox dimensions.
        coarse_traces: blackbox placement traces per non-leaf module.
        realized: realized cost per module (leaf and non-leaf).
        stalls: merged stall breakdown over all leaf runs.
        fault_log: merged fault log over all leaf runs.
        peak_width: regions simultaneously occupied by the entry's
            coarse replay (leaf entry: the schedule width).
    """

    entry: str
    k: int
    realized_runtime: int
    analytic_runtime: int
    leaves: Dict[str, EngineResult]
    coarse: Dict[str, CoarseResult]
    coarse_traces: Dict[str, EventTrace]
    realized: Dict[str, int]
    stalls: StallBreakdown
    fault_log: FaultLog
    peak_width: int
    config: EngineConfig
    machine: MultiSIMD

    @property
    def teleport_rounds(self) -> int:
        return sum(r.teleport_rounds for r in self.leaves.values())

    @property
    def utilization(self) -> float:
        """Aggregate busy fraction over every leaf run's region-cycles."""
        return _busy_fraction(list(self.leaves.values()))

    def to_trace_payload(self) -> Dict[str, Any]:
        """The merged ``repro.trace/1`` document for this execution."""
        return self._trace_payload(
            [
                (name, self.leaves[name].trace)
                for name in sorted(self.leaves)
                if self.leaves[name].trace is not None
            ],
            self.machine,
        )

    def metrics(self) -> Dict[str, Any]:
        """Flat engine columns for CLI JSON output."""
        return {
            "engine_runtime": self.realized_runtime,
            "engine_analytic_runtime": self.analytic_runtime,
            "engine_stall_cycles": self.stalls.total,
            "engine_stall_epr": self.stalls.epr,
            "engine_stall_bandwidth": self.stalls.bandwidth,
            "engine_stall_fault": self.stalls.fault,
            "engine_utilization": round(self.utilization, 6),
            "engine_teleport_rounds": self.teleport_rounds,
            "engine_faults": self.fault_log.total_events,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry": self.entry,
            "k": self.k,
            "realized_runtime": self.realized_runtime,
            "analytic_runtime": self.analytic_runtime,
            "ideal_match": self.ideal_match,
            "stalls": self.stalls.to_dict(),
            "peak_width": self.peak_width,
            "utilization": round(self.utilization, 6),
            "teleport_rounds": self.teleport_rounds,
            "engine_config": self.config.to_dict(),
            "modules": self._modules_dict(),
            "faults": self.fault_log.to_dict(),
        }


def _coarse_trace(module, result: CoarseResult) -> EventTrace:
    """Blackbox placement events for one coarse replay (greedy lane
    assignment, purely for rendering)."""
    trace = EventTrace(result.module)
    lanes: List[int] = []
    for p in sorted(
        result.placements, key=lambda p: (p.start, p.finish, p.node)
    ):
        stmt = module.body[p.node]
        label = (
            stmt.gate
            if isinstance(stmt, Operation)
            else f"call {stmt.callee}"
        )
        lane = next(
            (i for i, busy in enumerate(lanes) if busy <= p.start),
            None,
        )
        if lane is None:
            lane = len(lanes)
            lanes.append(0)
        lanes[lane] = p.finish
        trace.emit(
            label,
            "blackbox",
            p.start,
            p.finish - p.start,
            f"lane{lane}",
            width=p.width,
            node=p.node,
        )
    return trace


def _execute_hierarchy(
    result: CompileResult,
    config: EngineConfig,
    run_leaf: Callable[[str], Any],
    stalls: Any,
    coarse_span: str = "engine:coarse",
) -> Dict[str, Any]:
    """Execute ``result`` bottom-up, ``run_leaf(name)`` running each
    leaf; return the fields every hierarchical execution carries.

    Realized leaf runtimes replace the analytic width-``k`` blackbox
    dimensions, and non-leaf modules are re-coarse-scheduled over the
    realized dimensions — so stalls in a hot leaf propagate into the
    program-level realized runtime exactly the way the compile-time
    composition would have propagated its analytic cost. Leaf stalls
    merge into ``stalls`` and leaf fault logs into one program log, in
    topological order.
    """
    program = result.program
    k = result.machine.k
    leaves: Dict[str, Any] = {}
    coarse: Dict[str, CoarseResult] = {}
    coarse_traces: Dict[str, EventTrace] = {}
    realized: Dict[str, int] = {}
    realized_dims: Dict[str, Dict[int, int]] = {}
    fault_log = FaultLog(seed=config.seed, scope=program.entry)

    for name in program.topological_order():
        mod = program.module(name)
        if mod.is_leaf:
            run = run_leaf(name)
            leaves[name] = run
            stalls.merge(run.stalls)
            fault_log.merge(run.fault_log)
            realized[name] = max(run.realized_runtime, 1)
        else:
            callees = sorted(mod.callees())
            dims = {c: realized_dims[c] for c in callees}
            with span(coarse_span):
                replay = schedule_coarse(
                    mod,
                    dims,
                    k=k,
                    gate_cost=GATE_CYCLES + TELEPORT_CYCLES,
                    call_overhead=TELEPORT_CYCLES,
                )
            coarse[name] = replay
            if config.collect_trace:
                coarse_traces[name] = _coarse_trace(mod, replay)
            realized[name] = max(replay.total_length, 1)
        # Downstream coarse schedules see the analytic dims with the
        # full-width entry replaced by the realized cost — the same
        # clamp the compile-time profiles apply.
        dims_table = dict(result.profiles[name].runtime)
        dims_table[k] = realized[name]
        realized_dims[name] = dims_table

    entry = program.entry
    return dict(
        entry=entry,
        realized_runtime=realized[entry],
        analytic_runtime=result.profiles[entry].runtime[k],
        leaves=leaves,
        coarse=coarse,
        coarse_traces=coarse_traces,
        realized=realized,
        stalls=stalls,
        fault_log=fault_log,
        config=config,
    )


def execute_result(
    result: CompileResult,
    config: Optional[EngineConfig] = None,
    preflight: bool = True,
) -> ProgramExecution:
    """Execute a whole compile result, hierarchically.

    Every retained leaf schedule runs on the engine; the rest is
    :func:`_execute_hierarchy`'s bottom-up coarse replay over the
    realized leaf runtimes.

    Raises:
        EngineError: the result carries no schedules (compiled with
            ``keep_schedules=False``) — recompile with
            ``keep_schedules=True``.
        PreflightError: preflight replay found violations.
    """
    config = config or EngineConfig()
    if not result.schedules:
        raise EngineError(
            "compile result has no retained schedules; recompile with "
            "keep_schedules=True"
        )

    def run_leaf(name: str) -> EngineResult:
        sched = result.schedules.get(name)
        if sched is None:
            raise EngineError(
                f"no retained schedule for leaf module {name!r}"
            )
        return run_schedule(
            sched,
            result.machine,
            config=config,
            scope=name,
            preflight=preflight,
        )

    walk = _execute_hierarchy(result, config, run_leaf, StallBreakdown())
    entry = walk["entry"]
    if entry in walk["coarse"]:
        peak = walk["coarse"][entry].total_width
    else:
        peak = walk["leaves"][entry].k
    return ProgramExecution(
        k=result.machine.k,
        peak_width=peak,
        machine=result.machine,
        **walk,
    )
