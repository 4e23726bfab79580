"""Tests for the schedule auditor (repro.analysis.schedule_audit) and
the collect-all violation plumbing in Schedule / replay."""

import pytest

from repro.analysis import audit_replay, audit_schedule
from repro.arch.machine import MultiSIMD
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.sched.comm import derive_movement
from repro.sched.lpfs import schedule_lpfs
from repro.sched.replay import ReplayError, replay_schedule
from repro.sched.types import Schedule, ScheduleError

A, B, C = Qubit("q", 0), Qubit("q", 1), Qubit("q", 2)


def _dag():
    return DependenceDAG([
        Operation("H", (A,)),
        Operation("CNOT", (A, B)),
        Operation("H", (B,)),
    ])


def _empty_schedule(k=2):
    return Schedule(_dag(), k=k)


class TestErrorClasses:
    def test_schedule_error_is_not_assertion_error(self):
        assert issubclass(ScheduleError, Exception)
        assert not issubclass(ScheduleError, AssertionError)

    def test_replay_error_is_not_assertion_error(self):
        assert issubclass(ReplayError, Exception)
        assert not issubclass(ReplayError, AssertionError)


class TestIterViolations:
    def test_good_schedule_has_none(self):
        sched = schedule_lpfs(_dag(), k=2)
        assert list(sched.iter_violations()) == []
        sched.validate()

    def test_collects_multiple_violations(self):
        # Node 0 unscheduled; node 2 placed before its dependence
        # (node 1); nodes 1 and 2 share qubit B in one timestep.
        sched = _empty_schedule()
        sched.append_timestep({0: [2], 1: [1]})
        violations = list(sched.iter_violations())
        codes = [v.code for v in violations]
        assert "QL201" in codes  # node 0 never scheduled
        assert "QL202" in codes  # dependence 1 -> 2 broken
        assert "QL205" in codes  # qubit B touched twice in ts 0
        assert len(violations) >= 3

    def test_duplicate_node_detected(self):
        sched = _empty_schedule()
        sched.append_timestep({0: [0]})
        sched.append_timestep({0: [0]})  # again
        sched.append_timestep({0: [1]})
        sched.append_timestep({0: [2]})
        codes = [v.code for v in sched.iter_violations()]
        assert "QL201" in codes

    def test_simd_gate_mix_detected(self):
        sched = _empty_schedule()
        sched.append_timestep({0: [0]})
        sched.append_timestep({0: [1, 2]})  # CNOT and H in one region
        codes = [v.code for v in sched.iter_violations()]
        assert "QL204" in codes

    def test_validate_raises_on_first(self):
        sched = _empty_schedule()
        with pytest.raises(ScheduleError):
            sched.validate()


class TestAuditSchedule:
    def test_collects_all_as_error_diagnostics(self):
        sched = _empty_schedule()
        sched.append_timestep({0: [2], 1: [1]})
        diags = audit_schedule(sched, module="broken")
        assert diags.has_errors
        assert len(diags) >= 3
        assert {"QL201", "QL202", "QL205"} <= diags.codes()
        assert all(d.module == "broken" for d in diags)
        assert all(d.rule == "schedule-invariants" for d in diags)

    def test_clean_schedule_with_machine_is_empty(self):
        machine = MultiSIMD(k=2, local_memory=None)
        sched = schedule_lpfs(_dag(), k=2)
        derive_movement(sched, machine)
        assert len(audit_schedule(sched, machine)) == 0


class TestAuditReplay:
    def test_missing_moves_collected_not_raised(self):
        # A structurally fine schedule with its movement plan stripped:
        # every operand use becomes a residency violation.
        machine = MultiSIMD(k=2, local_memory=None)
        sched = schedule_lpfs(_dag(), k=2)
        derive_movement(sched, machine)
        sched.moves = []
        diags = audit_replay(sched, machine, module="stripped")
        assert diags.has_errors
        assert diags.codes() == {"QL301"}
        assert all(d.rule == "replay-invariants" for d in diags)
        # the raising path still aborts on the first violation
        with pytest.raises(ReplayError, match="not in region"):
            replay_schedule(sched, machine)

    def test_width_mismatch_reported(self):
        machine = MultiSIMD(k=1, local_memory=None)
        sched = schedule_lpfs(_dag(), k=2)
        derive_movement(sched, MultiSIMD(k=2, local_memory=None))
        diags = audit_replay(sched, machine)
        assert "QL306" in diags.codes()

    def test_violation_count_in_report(self):
        machine = MultiSIMD(k=2, local_memory=None)
        sched = schedule_lpfs(_dag(), k=2)
        derive_movement(sched, machine)
        sched.moves = []
        collected = []
        report = replay_schedule(
            sched, machine,
            on_violation=lambda c, m, t: collected.append((c, t)),
        )
        assert report.violations == len(collected) > 0

    def test_clean_replay_has_zero_violations(self):
        machine = MultiSIMD(k=2, local_memory=None)
        sched = schedule_lpfs(_dag(), k=2)
        derive_movement(sched, machine)
        report = replay_schedule(sched, machine)
        assert report.violations == 0
