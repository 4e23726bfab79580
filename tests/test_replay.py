"""Tests for schedule replay — and replay used as an independent
oracle against the movement planner."""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import MultiSIMD
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.sched.comm import derive_movement
from repro.sched.lpfs import schedule_lpfs
from repro.sched.rcp import schedule_rcp
from repro.sched.replay import ReplayError, replay_schedule
from repro.sched.types import Move, Schedule
from tests.oracle.reference_replay import replay_schedule_reference

Q = [Qubit("q", i) for i in range(8)]


def planned(dag, machine, scheduler=schedule_rcp, k=None):
    sched = scheduler(dag, k=k or machine.k)
    stats = derive_movement(sched, machine)
    return sched, stats


class TestReplayAgreesWithPlanner:
    def test_runtime_matches_stats(self):
        dag = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("H", (Q[2],)),
                Operation("CNOT", (Q[1], Q[2])),
                Operation("T", (Q[0],)),
            ]
        )
        machine = MultiSIMD(k=2)
        sched, stats = planned(dag, machine)
        report = replay_schedule(sched, machine)
        assert report.runtime == stats.runtime
        assert report.teleport_epochs == stats.teleport_epochs
        assert report.local_epochs == stats.local_epochs

    def test_runtime_matches_with_local_memory(self):
        dag = DependenceDAG(
            [
                Operation("H", (Q[0],)),
                Operation("H", (Q[1],)),
                Operation("T", (Q[0],)),
                Operation("T", (Q[1],)),
            ] * 3
        )
        machine = MultiSIMD(k=2, local_memory=4)
        sched, stats = planned(dag, machine)
        report = replay_schedule(sched, machine)
        assert report.runtime == stats.runtime

    def test_scratchpad_peak_within_capacity(self):
        dag = DependenceDAG(
            [Operation("H", (Q[i % 4],)) for i in range(16)]
        )
        machine = MultiSIMD(k=2, local_memory=2)
        sched, _ = planned(dag, machine)
        report = replay_schedule(sched, machine)
        assert all(v <= 2 for v in report.peak_scratchpad.values())


class TestReplayCatchesViolations:
    def manual(self, dag, placements, k=2):
        sched = Schedule(dag, k=k)
        for regions in placements:
            sched.append_timestep(dict(enumerate(regions)))
        sched.moves = [[] for _ in placements]
        return sched

    def test_missing_fetch_detected(self):
        dag = DependenceDAG([Operation("H", (Q[0],))])
        sched = self.manual(dag, [[[0], []]])
        # No moves attached: operand still in global memory.
        with pytest.raises(ReplayError, match="not in region"):
            replay_schedule(sched, MultiSIMD(k=2))

    def test_wrong_source_detected(self):
        dag = DependenceDAG([Operation("H", (Q[0],))])
        sched = self.manual(dag, [[[0], []]])
        sched.moves[0] = [
            Move(Q[0], ("region", 1), ("region", 0), "teleport")
        ]
        with pytest.raises(ReplayError, match="claims src"):
            replay_schedule(sched, MultiSIMD(k=2))

    def test_bad_ballistic_endpoints_detected(self):
        dag = DependenceDAG([Operation("H", (Q[0],))])
        sched = self.manual(dag, [[[0], []]])
        sched.moves[0] = [
            Move(Q[0], ("global",), ("region", 0), "local")
        ]
        with pytest.raises(ReplayError, match="ballistic"):
            replay_schedule(sched, MultiSIMD(k=2, local_memory=4))

    def test_scratchpad_overflow_detected(self):
        dag = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("H", (Q[2],)),
                Operation("CNOT", (Q[0], Q[1])),
            ]
        )
        sched = self.manual(dag, [[[0], []], [[1], []], [[2], []]])
        sched.moves[0] = [
            Move(Q[0], ("global",), ("region", 0), "teleport"),
            Move(Q[1], ("global",), ("region", 0), "teleport"),
        ]
        sched.moves[1] = [
            Move(Q[0], ("region", 0), ("local", 0), "local"),
            Move(Q[1], ("region", 0), ("local", 0), "local"),
            Move(Q[2], ("global",), ("region", 0), "teleport"),
        ]
        with pytest.raises(ReplayError, match="over capacity"):
            replay_schedule(sched, MultiSIMD(k=2, local_memory=1))

    def test_scratchpad_without_local_memory_detected(self):
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("H", (Q[1],))]
        )
        sched = self.manual(dag, [[[0], []], [[1], []]])
        sched.moves[0] = [
            Move(Q[0], ("global",), ("region", 0), "teleport"),
        ]
        sched.moves[1] = [
            Move(Q[0], ("region", 0), ("local", 0), "local"),
            Move(Q[1], ("global",), ("region", 0), "teleport"),
        ]
        with pytest.raises(ReplayError, match="without"):
            replay_schedule(sched, MultiSIMD(k=2))

    def test_idle_qubit_in_active_region_detected(self):
        dag = DependenceDAG(
            [
                Operation("H", (Q[0],)),
                Operation("H", (Q[1],)),
                Operation("T", (Q[0],)),
            ]
        )
        sched = self.manual(dag, [[[0], []], [[1], []], [[2], []]])
        # q0 fetched, then left in region 0 while region 0 runs q1.
        sched.moves[0] = [
            Move(Q[0], ("global",), ("region", 0), "teleport")
        ]
        sched.moves[1] = [
            Move(Q[1], ("global",), ("region", 0), "teleport")
        ]
        with pytest.raises(ReplayError, match="idles in active"):
            replay_schedule(sched, MultiSIMD(k=2))

    def test_in_place_edit_replays_afresh(self):
        dag = DependenceDAG(
            [
                Operation("H", (Q[0],)),
                Operation("H", (Q[1],)),
                Operation("T", (Q[0],)),
            ]
        )
        sched = self.manual(dag, [[[0], []], [[1], []]])
        sched.moves[0] = [
            Move(Q[0], ("global",), ("region", 0), "teleport")
        ]
        sched.moves[1] = [
            Move(Q[1], ("global",), ("region", 0), "teleport")
        ]
        machine = MultiSIMD(k=2)
        replay_schedule(sched, machine)
        # q0 now has a use after t=1, so it idles live in region 0
        # while region 0 runs q1.
        sched.append_timestep({0: [2]})
        with pytest.raises(
            ReplayError,
            match=r"t=1: live qubit q\[0\] idles in active region 0",
        ):
            replay_schedule(sched, machine)

    def test_k_mismatch_detected(self):
        dag = DependenceDAG([Operation("H", (Q[0],))])
        sched = self.manual(dag, [[[0], []]], k=2)
        with pytest.raises(ReplayError, match="regions"):
            replay_schedule(sched, MultiSIMD(k=1))


# --- the planner always produces replayable schedules -----------------------

@st.composite
def random_dag(draw):
    n_qubits = draw(st.integers(2, 6))
    qs = [Qubit("q", i) for i in range(n_qubits)]
    n_ops = draw(st.integers(1, 35))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            gate = draw(st.sampled_from(["H", "T", "X"]))
            ops.append(Operation(gate, (draw(st.sampled_from(qs)),)))
        else:
            pair = draw(
                st.lists(st.sampled_from(qs), min_size=2, max_size=2,
                         unique=True)
            )
            ops.append(Operation("CNOT", tuple(pair)))
    return DependenceDAG(ops)


class TestPlannerReplayProperty:
    @given(
        random_dag(),
        st.integers(1, 4),
        st.sampled_from([None, 1.0, 2.0, math.inf]),
        st.sampled_from(["rcp", "lpfs"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_planned_movement_always_replayable(
        self, dag, k, local, alg
    ):
        machine = MultiSIMD(k=k, local_memory=local)
        scheduler = schedule_rcp if alg == "rcp" else schedule_lpfs
        sched = scheduler(dag, k=k)
        stats = derive_movement(sched, machine)
        report = replay_schedule(sched, machine)
        assert report.runtime == stats.runtime
        assert report.teleport_epochs == stats.teleport_epochs
        assert report.local_epochs == stats.local_epochs


# --- replay keeps no state between calls ---------------------------------

class TestReplayKeepsNoState:
    def test_schedule_freed_after_replay(self):
        dag = DependenceDAG(
            [Operation("H", (Q[i % 4],)) for i in range(16)]
        )
        machine = MultiSIMD(k=2)
        sched, _stats = planned(dag, machine)
        ref = weakref.ref(sched)
        replay_schedule(sched, machine)
        del sched
        gc.collect()
        assert ref() is None


# --- differential: the replay vs the tests/oracle/ reference -------------

CORRUPTIONS = ("none", "drop", "retarget", "swap", "clear", "short")


def corrupt(sched, machine, how, data):
    """Apply corruption ``how`` to ``sched`` in place; return the
    machine to replay on."""
    epochs = [t for t, moves in enumerate(sched.moves) if moves]
    if how == "drop" and epochs:
        moves = sched.moves[data.draw(st.sampled_from(epochs))]
        del moves[data.draw(st.integers(0, len(moves) - 1))]
    elif how == "retarget" and epochs:
        moves = sched.moves[data.draw(st.sampled_from(epochs))]
        i = data.draw(st.integers(0, len(moves) - 1))
        move = moves[i]
        places = [("global",)] + [
            (kind, r) for kind in ("region", "local") for r in range(sched.k)
        ]
        dst = data.draw(
            st.sampled_from([p for p in places if p != move.src])
        )
        moves[i] = Move(move.qubit, move.src, dst, move.kind)
    elif how == "swap" and sched.length > 1:
        a, b = data.draw(
            st.lists(
                st.integers(0, sched.length - 1),
                min_size=2, max_size=2, unique=True,
            )
        )
        sched.moves[a], sched.moves[b] = sched.moves[b], sched.moves[a]
    elif how == "clear":
        sched.moves = []
    elif how == "short" and machine.k > 1:
        return MultiSIMD(k=machine.k - 1, local_memory=machine.local_memory)
    return machine


def report_fields(report):
    return (
        report.runtime,
        report.teleport_epochs,
        report.local_epochs,
        report.peak_scratchpad,
        list(report.final_locations.items()),
        report.violations,
    )


def collect_all(replay, sched, machine):
    seen = []
    report = replay(
        sched, machine, on_violation=lambda *v: seen.append(v)
    )
    return seen, report_fields(report)


def first_error(replay, sched, machine):
    try:
        return report_fields(replay(sched, machine))
    except ReplayError as exc:
        return str(exc)


class TestReplayMatchesReference:
    """Planned schedules, clean or broken the ways hand-edited and
    externally modified plans break, replay identically on both."""

    @given(
        random_dag(),
        st.integers(1, 4),
        st.sampled_from([None, 1, 2, 4]),
        st.sampled_from(["rcp", "lpfs"]),
        st.sampled_from(CORRUPTIONS),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_corrupted_plans_replay_identically(
        self, dag, k, local, alg, how, data
    ):
        machine = MultiSIMD(k=k, local_memory=local)
        scheduler = schedule_rcp if alg == "rcp" else schedule_lpfs
        sched = scheduler(dag, k=k)
        derive_movement(sched, machine)
        machine = corrupt(sched, machine, how, data)
        assert collect_all(replay_schedule, sched, machine) == collect_all(
            replay_schedule_reference, sched, machine
        )
        assert first_error(replay_schedule, sched, machine) == first_error(
            replay_schedule_reference, sched, machine
        )
