"""Tests for schedule data structures and invariant validation."""

import pytest

from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.sched.types import Move, Schedule, ScheduleError

Q = [Qubit("q", i) for i in range(6)]


def simple_dag():
    return DependenceDAG(
        [
            Operation("H", (Q[0],)),
            Operation("H", (Q[1],)),
            Operation("CNOT", (Q[0], Q[1])),
        ]
    )


def build_schedule(dag, placements, k=2):
    """placements: list of timesteps, each a list of per-region node
    lists."""
    sched = Schedule(dag, k=k)
    for regions in placements:
        sched.append_timestep(dict(enumerate(regions)))
    return sched


class TestMove:
    def test_kinds(self):
        Move(Q[0], ("global",), ("region", 0), "teleport")
        Move(Q[0], ("region", 0), ("local", 0), "local")
        with pytest.raises(ValueError, match="kind"):
            Move(Q[0], ("global",), ("region", 0), "walk")

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Move(Q[0], ("global",), ("global",), "teleport")


class TestScheduleShape:
    def test_flat_arrays(self):
        # Idle regions are skipped; entries are region-ascending within
        # a timestep whatever order the map lists them in.
        sched = Schedule(simple_dag(), k=3)
        sched.append_timestep({2: [1], 0: [0], 1: []})
        sched.append_timestep({})
        sched.append_timestep({1: [2]})
        assert list(sched.ts_off) == [0, 2, 2, 3]
        assert list(sched.flat_regions) == [0, 2, 1]
        assert list(sched.flat_nodes) == [0, 1, 2]
        assert sched.length == 3
        assert sched.max_width == 2
        assert sched.regions_at(0) == [(0, [0]), (2, [1])]
        assert sched.regions_at(1) == []

    def test_iter_timesteps(self):
        sched = build_schedule(simple_dag(), [[[0], [1]], [[2], []]])
        assert list(sched.iter_timesteps()) == [
            ([], [(0, [0]), (1, [1])]),
            ([], [(0, [2])]),
        ]
        move = Move(Q[0], ("global",), ("region", 0), "teleport")
        sched.moves = [[move]]  # a timestep past the list has none
        assert [m for m, _ in sched.iter_timesteps()] == [[move], []]
        # An explicit epoch iterator is drained to its end.
        drained = []

        def epochs():
            yield ["a"]
            yield ["b"]
            drained.append(True)

        assert [m for m, _ in sched.iter_timesteps(epochs())] == [
            ["a"], ["b"],
        ]
        assert drained == [True]

    def test_lengths_and_counts(self):
        dag = simple_dag()
        sched = build_schedule(dag, [[[0], [1]], [[2], []]])
        assert sched.length == 2
        assert sched.op_count == 3
        assert sched.max_width == 2
        sched.validate()

    def test_placement(self):
        dag = simple_dag()
        sched = build_schedule(dag, [[[0], [1]], [[2], []]])
        assert sched.placement() == {0: (0, 0), 1: (0, 1), 2: (1, 0)}

    def test_move_counters(self):
        dag = simple_dag()
        sched = build_schedule(dag, [[[0], [1]], [[2], []]])
        sched.moves = [
            [
                Move(Q[0], ("global",), ("region", 0), "teleport"),
                Move(Q[1], ("region", 1), ("local", 1), "local"),
            ],
            [],
        ]
        assert sched.total_moves == 2
        assert sched.teleport_moves == 1
        assert sched.local_moves == 1


class TestValidation:
    def test_missing_op_detected(self):
        dag = simple_dag()
        sched = build_schedule(dag, [[[0], [1]]])
        with pytest.raises(ScheduleError, match="unscheduled"):
            sched.validate()

    def test_duplicate_op_detected(self):
        dag = simple_dag()
        sched = build_schedule(dag, [[[0], [1]], [[2], [0]]])
        with pytest.raises(ScheduleError):
            sched.validate()

    def test_dependence_violation_detected(self):
        dag = simple_dag()
        # CNOT (node 2) scheduled with its predecessor H (node 0).
        sched = build_schedule(dag, [[[0], [2]], [[1], []]])
        with pytest.raises(ScheduleError, match="dependence"):
            sched.validate()

    def test_mixed_gate_types_in_region_detected(self):
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("T", (Q[1],))]
        )
        sched = build_schedule(dag, [[[0, 1], []]])
        with pytest.raises(ScheduleError, match="SIMD requires one"):
            sched.validate()

    def test_d_limit_enforced(self):
        dag = DependenceDAG(
            [Operation("H", (Q[i],)) for i in range(3)]
        )
        sched = Schedule(dag, k=1, d=2)
        sched.append_timestep({0: [0, 1, 2]})
        with pytest.raises(ScheduleError, match="d=2"):
            sched.validate()

    def test_region_beyond_k_detected(self):
        sched = Schedule(simple_dag(), k=2)
        sched.append_timestep({0: [0], 2: [1]})
        sched.append_timestep({0: [2]})
        with pytest.raises(ScheduleError, match=r"uses region 2 \(k=2\)"):
            sched.validate()

    def test_qubit_conflict_across_regions_detected(self):
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("H", (Q[1],))]
        )
        # Manually mis-place: both H's in one timestep but pretend
        # node 1 also touches Q[0] — craft with CNOTs instead.
        dag2 = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("CNOT", (Q[2], Q[3])),
            ]
        )
        sched = build_schedule(dag2, [[[0], [1]]])
        sched.validate()  # disjoint: fine
        dag3 = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("CNOT", (Q[2], Q[3])),
            ]
        )
        bad = build_schedule(dag3, [[[0, 1], []]])
        # same region, same gate type, disjoint qubits: legal
        bad.validate()

    def test_same_qubit_same_timestep_detected(self):
        # Two X ops on different qubits then a manual conflict.
        dag = DependenceDAG(
            [Operation("X", (Q[0],)), Operation("X", (Q[0],))]
        )
        sched = build_schedule(dag, [[[0], [1]]])
        with pytest.raises(ScheduleError):
            sched.validate()

    def test_operation_accessor_type_error(self):
        from repro.core.operation import CallSite

        dag = DependenceDAG([CallSite("x", (Q[0],))])
        sched = Schedule(dag, k=1)
        with pytest.raises(TypeError):
            sched.operation(0)
