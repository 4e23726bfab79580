"""Tests for the discrete-event execution engine core: the
analytic-equality invariant, agreement with the static EPR and NUMA
planners, stall monotonicity, and the replay preflight."""

import math

import pytest

from repro.arch.epr_schedule import plan_epr_distribution
from repro.arch.machine import MultiSIMD
from repro.arch.numa import NUMAConfig, numa_runtime
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.engine import (
    EngineConfig,
    EngineError,
    EPRPool,
    MachineState,
    PreflightError,
    run_schedule,
)
from repro.sched.comm import derive_movement
from repro.sched.lpfs import schedule_lpfs
from repro.sched.rcp import schedule_rcp
from repro.sched.sequential import schedule_sequential
from repro.sched.types import Move

Q = [Qubit("q", i) for i in range(10)]


def chain_dag(n=12):
    """A mixed DAG with real cross-region traffic."""
    ops = []
    for i in range(n):
        a, b = Q[i % 6], Q[(i + 3) % 6]
        if i % 3 == 0:
            ops.append(Operation("CNOT", (a, b)))
        else:
            ops.append(Operation("H" if i % 2 else "T", (a,)))
    return DependenceDAG(ops)


def annotated(machine, scheduler=schedule_rcp, n=12):
    sched = scheduler(chain_dag(n), k=machine.k)
    stats = derive_movement(sched, machine)
    return sched, stats


SCHEDULERS = [schedule_sequential, schedule_rcp, schedule_lpfs]


class TestIdealInvariant:
    """Faults off + infinite rate + no NUMA => realized == analytic."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_realized_equals_analytic(self, scheduler):
        machine = MultiSIMD(k=3)
        sched, stats = annotated(machine, scheduler)
        run = run_schedule(sched, machine)
        assert run.realized_runtime == stats.runtime
        assert run.analytic_runtime == stats.runtime
        assert run.stalls.total == 0
        assert run.gate_cycles == sched.length
        assert run.comm_cycles == stats.comm_cycles

    def test_epoch_tallies_match_comm_stats(self):
        machine = MultiSIMD(k=2)
        sched, stats = annotated(machine)
        run = run_schedule(sched, machine)
        assert run.teleport_epochs == stats.teleport_epochs
        assert run.local_epochs == stats.local_epochs
        assert run.epr_pairs == stats.teleports

    def test_scratchpad_machine(self):
        machine = MultiSIMD(k=2, local_memory=4)
        sched, stats = annotated(machine, schedule_lpfs, n=18)
        run = run_schedule(sched, machine)
        assert run.realized_runtime == stats.runtime

    def test_ops_executed_covers_dag(self):
        machine = MultiSIMD(k=2)
        sched, _ = annotated(machine)
        run = run_schedule(sched, machine)
        assert run.ops_executed == sched.op_count

    def test_utilization_bounded(self):
        machine = MultiSIMD(k=3)
        sched, _ = annotated(machine)
        run = run_schedule(sched, machine)
        assert run.utilization
        assert all(0.0 <= u <= 1.0 for u in run.utilization.values())

    def test_empty_schedule(self):
        machine = MultiSIMD(k=2)
        sched = schedule_rcp(DependenceDAG([]), k=2)
        derive_movement(sched, machine)
        run = run_schedule(sched, machine)
        assert run.realized_runtime == 0
        assert run.analytic_runtime == 0


class TestEPRRateAgreement:
    """Engine stalls at finite rate == the static plan's stalls."""

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
    def test_matches_plan(self, rate):
        machine = MultiSIMD(k=3)
        sched, _ = annotated(machine, n=18)
        plan = plan_epr_distribution(sched, rate)
        run = run_schedule(
            sched, machine, EngineConfig(epr_rate=rate)
        )
        assert run.stalls.epr == plan.stall_cycles
        assert run.realized_runtime == plan.runtime
        assert run.stalls.bandwidth == 0
        assert run.stalls.fault == 0

    def test_min_masking_rate_never_stalls(self):
        machine = MultiSIMD(k=3)
        sched, _ = annotated(machine, n=18)
        plan = plan_epr_distribution(sched)
        if plan.min_masking_rate > 0:
            run = run_schedule(
                sched,
                machine,
                EngineConfig(epr_rate=plan.min_masking_rate),
            )
            assert run.stalls.epr == 0

    def test_monotone_in_rate(self):
        machine = MultiSIMD(k=3)
        sched, stats = annotated(machine, n=18)
        prev = stats.runtime
        for rate in (4.0, 1.0, 0.5, 0.25, 0.1, 0.05):
            run = run_schedule(
                sched, machine, EngineConfig(epr_rate=rate)
            )
            assert run.realized_runtime >= prev
            prev = run.realized_runtime


class TestNUMAAgreement:
    """Engine bandwidth serialization == the static NUMA billing."""

    @pytest.mark.parametrize(
        "config",
        [
            NUMAConfig(banks=2, channel_bandwidth=1.0),
            NUMAConfig(banks=2, channel_bandwidth=2.0),
            NUMAConfig(banks=4, channel_bandwidth=1.0, bank_egress=2.0),
            NUMAConfig(banks=1, bank_egress=1.0),
        ],
    )
    def test_matches_numa_runtime(self, config):
        machine = MultiSIMD(k=3)
        sched, _ = annotated(machine, n=18)
        stats = numa_runtime(sched, config)
        run = run_schedule(sched, machine, EngineConfig(numa=config))
        assert run.realized_runtime == stats.runtime
        assert run.teleport_rounds == stats.teleport_rounds
        assert run.stalls.epr == 0
        assert run.stalls.fault == 0

    def test_unconstrained_numa_adds_nothing(self):
        machine = MultiSIMD(k=3)
        sched, stats = annotated(machine)
        run = run_schedule(
            sched, machine, EngineConfig(numa=NUMAConfig(banks=3))
        )
        assert run.realized_runtime == stats.runtime
        assert run.stalls.bandwidth == 0

    def test_combined_rate_and_bandwidth_compose(self):
        machine = MultiSIMD(k=3)
        sched, stats = annotated(machine, n=18)
        numa = NUMAConfig(banks=2, channel_bandwidth=1.0)
        run = run_schedule(
            sched,
            machine,
            EngineConfig(epr_rate=0.25, numa=numa),
        )
        assert run.stalls.bandwidth > 0 or run.stalls.epr > 0
        assert (
            run.realized_runtime
            == stats.runtime + run.stalls.total
        )


class TestPreflight:
    def test_clean_schedule_passes(self):
        machine = MultiSIMD(k=2)
        sched, _ = annotated(machine)
        run = run_schedule(sched, machine, preflight=True)
        assert run.preflight_violations == 0

    def test_skipped_preflight_reports_none(self):
        machine = MultiSIMD(k=2)
        sched, _ = annotated(machine)
        run = run_schedule(sched, machine, preflight=False)
        assert run.preflight_violations is None

    def test_broken_plan_refused(self):
        machine = MultiSIMD(k=2)
        sched, _ = annotated(machine)
        # Corrupt the movement plan: claim a qubit teleports from a
        # region it is not in.
        target = next(moves for moves in sched.moves if moves)
        bogus = Move(Q[9], ("region", 1), ("region", 0), "teleport")
        target.append(bogus)
        with pytest.raises(PreflightError) as err:
            run_schedule(sched, machine)
        assert err.value.violations
        codes = {code for code, _, _ in err.value.violations}
        assert codes & {"QL301", "QL302", "QL305"}

    def test_no_preflight_executes_broken_plan(self):
        machine = MultiSIMD(k=2)
        sched, _ = annotated(machine)
        target = next(moves for moves in sched.moves if moves)
        target.append(
            Move(Q[9], ("region", 1), ("region", 0), "teleport")
        )
        run = run_schedule(sched, machine, preflight=False)
        assert run.realized_runtime > 0

    def test_machine_too_small(self):
        machine = MultiSIMD(k=4)
        sched, _ = annotated(machine)
        with pytest.raises(EngineError):
            run_schedule(sched, MultiSIMD(k=2))


class TestEPRPool:
    def test_infinite_rate_never_stalls(self):
        pool = EPRPool()
        assert pool.stall_for(1000, 0) == 0

    def test_prestage_covers_cycle_zero(self):
        pool = EPRPool(rate=0.1, prestage=5)
        assert pool.stall_for(5, 0) == 0
        assert pool.stall_for(6, 0) == 10

    def test_stall_accounts_consumption(self):
        pool = EPRPool(rate=1.0)
        moves = [
            Move(Q[i], ("global",), ("region", 0), "teleport")
            for i in range(3)
        ]
        pool.consume(moves)
        assert pool.consumed == 3
        assert pool.stall_for(2, 2) == 3  # need 5 produced, have 2

    def test_wasted_attempts_delay_later_epochs(self):
        fast = EPRPool(rate=1.0)
        slow = EPRPool(rate=1.0)
        moves = [Move(Q[0], ("global",), ("region", 0), "teleport")]
        fast.consume(moves, wasted_attempts=0)
        slow.consume(moves, wasted_attempts=4)
        assert slow.stall_for(3, 2) > fast.stall_for(3, 2)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            EPRPool(rate=0.0)

    def test_channel_accounting(self):
        pool = EPRPool()
        pool.consume(
            [
                Move(Q[0], ("global",), ("region", 1), "teleport"),
                Move(Q[1], ("global",), ("region", 1), "teleport"),
            ]
        )
        assert pool.channel_pairs == {("global", "region1"): 2}


class TestMachineState:
    def test_cannot_rewind_clock(self):
        state = MachineState(1, MultiSIMD(k=1))
        with pytest.raises(ValueError):
            state.advance(-1)

    def test_utilization_zero_runtime(self):
        state = MachineState(2, MultiSIMD(k=2))
        assert state.utilization() == {0: 0.0, 1: 0.0}


class TestEngineConfig:
    def test_defaults_are_ideal(self):
        assert EngineConfig().ideal

    def test_finite_rate_not_ideal(self):
        assert not EngineConfig(epr_rate=1.0).ideal

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            EngineConfig(epr_rate=0)

    def test_to_dict_json_safe(self):
        import json

        from repro.engine import FaultConfig

        config = EngineConfig(
            epr_rate=math.inf,
            numa=NUMAConfig(banks=2),
            faults=FaultConfig(epr_failure_prob=0.1),
        )
        doc = json.loads(json.dumps(config.to_dict()))
        assert doc["epr_rate"] == "inf"
        assert doc["numa"]["banks"] == 2
        assert doc["faults"]["epr_failure_prob"] == 0.1
