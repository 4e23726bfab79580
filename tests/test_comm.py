"""Tests for movement derivation and the communication cost model."""

import math
import random
import tracemalloc

import pytest

from repro.arch.machine import MultiSIMD, NAIVE_FACTOR, TELEPORT_CYCLES
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.opstream import ListStream
from repro.core.qubits import Qubit
from repro.sched.comm import (
    CommStats,
    derive_movement,
    naive_runtime,
    narrowest_typecode,
)
from repro.sched.lpfs import schedule_lpfs
from repro.sched.rcp import schedule_rcp
from repro.sched.report import _comm_to_dict
from repro.sched.sequential import schedule_sequential
from repro.sched.stream import (
    build_columns,
    iter_schedule_epochs,
    schedule_columns,
)
from repro.sched.types import Schedule
from tests.oracle import reference_sched

Q = [Qubit("q", i) for i in range(8)]


def manual_schedule(dag, placements, k=2):
    sched = Schedule(dag, k=k)
    for regions in placements:
        sched.append_timestep(dict(enumerate(regions)))
    return sched


class TestBasicMovement:
    def test_initial_fetch_is_teleport(self):
        dag = DependenceDAG([Operation("H", (Q[0],))])
        sched = manual_schedule(dag, [[[0], []]])
        stats = derive_movement(sched, MultiSIMD(k=2))
        assert stats.teleports == 1
        assert stats.comm_cycles == TELEPORT_CYCLES
        assert stats.runtime == 1 + TELEPORT_CYCLES

    def test_chain_stays_in_place_after_fetch(self):
        """A serial single-qubit chain pays one initial teleport and
        nothing after (the LPFS win)."""
        dag = DependenceDAG([Operation("T", (Q[0],)) for _ in range(10)])
        sched = schedule_lpfs(dag, k=2)
        stats = derive_movement(sched, MultiSIMD(k=2))
        assert stats.teleports == 1
        assert stats.runtime == 10 + TELEPORT_CYCLES

    def test_region_change_costs_teleport(self):
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("H", (Q[0],))]
        )
        # Deliberately split one qubit's chain across regions.
        sched = manual_schedule(dag, [[[0], []], [[], [1]]])
        stats = derive_movement(sched, MultiSIMD(k=2))
        assert stats.teleports == 2  # fetch + inter-region move

    def test_idle_qubit_in_active_region_is_evicted(self):
        # q0 used at ts0 and ts2 in region 0; ts1 keeps region 0 busy
        # with q1: q0 must be evicted and re-fetched.
        dag = DependenceDAG(
            [
                Operation("H", (Q[0],)),
                Operation("H", (Q[1],)),
                Operation("T", (Q[0],)),
            ]
        )
        sched = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        stats = derive_movement(sched, MultiSIMD(k=2))
        # fetch q0, fetch q1 + evict q0 (to global), fetch q0 again.
        assert stats.teleports == 4

    def test_idle_region_is_passive_storage(self):
        # Same shape but q1's op is in region 1, leaving region 0 idle
        # at ts1: q0 may stay put.
        dag = DependenceDAG(
            [
                Operation("H", (Q[0],)),
                Operation("H", (Q[1],)),
                Operation("T", (Q[0],)),
            ]
        )
        sched = manual_schedule(dag, [[[0], []], [[], [1]], [[2], []]])
        stats = derive_movement(sched, MultiSIMD(k=2))
        assert stats.teleports == 2  # only the two initial fetches


class TestLocalMemory:
    def evict_reuse_dag(self):
        """q0: op, gap (region busy), op again in the same region."""
        return DependenceDAG(
            [
                Operation("H", (Q[0],)),
                Operation("H", (Q[1],)),
                Operation("T", (Q[0],)),
            ]
        )

    def test_local_memory_converts_eviction(self):
        dag = self.evict_reuse_dag()
        sched = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        stats = derive_movement(
            sched, MultiSIMD(k=2, local_memory=math.inf)
        )
        # q0's eviction and return are 1-cycle local moves now.
        assert stats.local_moves == 2
        assert stats.teleports == 2  # the two initial fetches

    def test_local_memory_capacity_zero_behaves_like_none(self):
        dag = self.evict_reuse_dag()
        sched_none = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        stats_none = derive_movement(sched_none, MultiSIMD(k=2))
        sched_zero = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        stats_zero = derive_movement(
            sched_zero, MultiSIMD(k=2, local_memory=0)
        )
        assert stats_zero.runtime == stats_none.runtime

    def test_capacity_limits_local_parking(self):
        # Two qubits wanting local slots, capacity 1: one goes global.
        dag = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("H", (Q[2],)),
                Operation("CNOT", (Q[0], Q[1])),
            ]
        )
        sched = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        stats = derive_movement(
            sched, MultiSIMD(k=2, local_memory=1)
        )
        assert stats.local_moves == 2  # one qubit parked + returned
        # The other eviction teleports.
        assert stats.teleports >= 3

    def test_local_epoch_cheaper_than_teleport_epoch(self):
        dag = self.evict_reuse_dag()
        s1 = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        base = derive_movement(s1, MultiSIMD(k=2)).runtime
        s2 = manual_schedule(dag, [[[0], []], [[1], []], [[2], []]])
        local = derive_movement(
            s2, MultiSIMD(k=2, local_memory=math.inf)
        ).runtime
        assert local < base


class TestEpochBilling:
    def test_epoch_with_teleport_costs_four(self):
        dag = DependenceDAG(
            [Operation("CNOT", (Q[0], Q[1]))]
        )
        sched = manual_schedule(dag, [[[0], []]])
        stats = derive_movement(sched, MultiSIMD(k=2))
        # Two teleports in one epoch still cost 4 total.
        assert stats.teleports == 2
        assert stats.comm_cycles == TELEPORT_CYCLES
        assert stats.teleport_epochs == 1

    def test_idempotent(self):
        dag = DependenceDAG([Operation("T", (Q[0],)) for _ in range(4)])
        sched = schedule_rcp(dag, k=2)
        first = derive_movement(sched, MultiSIMD(k=2))
        second = derive_movement(sched, MultiSIMD(k=2))
        assert first.runtime == second.runtime
        assert sched.total_moves == second.teleports + second.local_moves

    def test_moves_attached_to_timesteps(self):
        dag = DependenceDAG([Operation("H", (Q[0],))])
        sched = manual_schedule(dag, [[[0], []]])
        derive_movement(sched, MultiSIMD(k=2))
        assert len(sched.moves) == sched.length == 1
        assert len(sched.moves[0]) == 1

    def test_epr_accounting_populated(self):
        dag = DependenceDAG(
            [Operation("CNOT", (Q[0], Q[1]))]
        )
        sched = manual_schedule(dag, [[[0], []]])
        stats = derive_movement(sched, MultiSIMD(k=2))
        assert stats.epr.total_pairs == 2
        assert stats.epr.pair_counts[("global", "region0")] == 2

    def test_channel_table_grows_with_channels_in_use(self):
        """A wide machine pays for the channels an epoch uses, not for
        a (2k+1)^2 table of every location pair."""
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("H", (Q[1],))]
        )
        sched = manual_schedule(dag, [[[0], [1]]], k=1024)
        machine = MultiSIMD(k=1024)
        dag.columns()
        tracemalloc.start()
        try:
            stats = derive_movement(sched, machine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.epr.pair_counts == {
            ("global", "region0"): 1,
            ("global", "region1"): 1,
        }
        assert peak < 2 * 1024 * 1024


class TestNaiveModel:
    def test_naive_factor(self):
        assert naive_runtime(100) == 5 * 100
        assert NAIVE_FACTOR == 5

    def test_comm_aware_never_worse_than_naive_sequential(self):
        """Property: for a sequential schedule, runtime <= naive model
        (at worst every timestep pays an epoch, equaling naive)."""
        dag = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("CNOT", (Q[1], Q[2])),
                Operation("CNOT", (Q[2], Q[3])),
                Operation("H", (Q[0],)),
            ]
        )
        sched = schedule_sequential(dag)
        stats = derive_movement(sched, MultiSIMD(k=1))
        assert stats.runtime <= naive_runtime(dag.n)


class TestUseStreamWidths:
    """The operand-use stream is stored in the narrowest array type
    that holds its ids, so the wider types need their own coverage."""

    @pytest.mark.parametrize(
        "lo, hi, code",
        [
            (0, -1, "B"),  # a leaf with no qubits
            (0, 255, "B"),
            (0, 256, "H"),
            (-1, 127, "b"),
            (-1, 128, "h"),
            (0, 65535, "H"),
            (0, 65536, "i"),
            (-1, 32768, "i"),
            (0, 2**31, "q"),
        ],
    )
    def test_narrowest_typecode(self, lo, hi, code):
        assert narrowest_typecode(lo, hi) == code

    def test_wide_ids_match_materialized_and_oracle(self):
        """300 qubits and 130 regions put qubit ids and next-use
        regions past one byte; streamed, materialized and oracle
        movement still agree."""
        rng = random.Random(7)
        qubits = [Qubit("w", i) for i in range(300)]
        ops = [
            Operation("CNOT", tuple(rng.sample(qubits, 2)))
            if rng.random() < 0.5
            else Operation("H", (rng.choice(qubits),))
            for _ in range(900)
        ]
        k = 130
        machine = MultiSIMD(k=k, d=2, local_memory=1)
        sched = schedule_rcp(DependenceDAG(list(ops)), k, 2)
        stats = derive_movement(sched, machine)
        cols = build_columns(ListStream(ops))
        ssched = schedule_columns(cols, "rcp", k, 2)
        streamed = CommStats()
        epochs = [
            moves
            for _, moves, _ in iter_schedule_epochs(
                cols, ssched, machine, streamed
            )
        ]
        assert epochs == sched.moves
        assert _comm_to_dict(streamed) == _comm_to_dict(stats)
        assert stats.teleports > 0 and stats.local_moves > 0
        ref = reference_sched.derive_movement_reference(sched, machine)
        assert epochs == sched.moves
        assert _comm_to_dict(ref) == _comm_to_dict(stats)
