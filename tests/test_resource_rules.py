"""Tests for the static resource/communication bounds (QL5xx)."""

from __future__ import annotations

import dataclasses

from repro.analysis.dataflow import solve_bottom_up
from repro.analysis.deep import analyze_deep
from repro.analysis.resource_rules import (
    ResourceAnalysis,
    audit_profile_bounds,
    audit_schedule_bounds,
)
from repro.arch.machine import MultiSIMD
from repro.core.dag import DependenceDAG
from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation
from repro.core.qubits import Qubit
from repro.sched.comm import derive_movement
from repro.sched.sequential import schedule_sequential
from repro.sched.types import Schedule

Q = [Qubit("q", i) for i in range(8)]


def summaries_of(program: Program):
    return solve_bottom_up(program, ResourceAnalysis()).summaries


class TestSummarize:
    def test_leaf_counts(self):
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (Q[0],)),
                Operation("H", (Q[0],)),
                Operation("CNOT", (Q[0], Q[1])),
                Operation("MeasZ", (Q[1],)),
            ],
        )
        s = summaries_of(Program([main], entry="main"))["main"]
        assert s.ops == 4
        assert s.frame_qubits == 2
        assert s.op_footprint == 2
        assert s.inline_qubits == 2
        assert s.width_ub == 2  # min(ops=4, qubits=2)
        assert s.chain == 3  # q0: prep, H, CNOT
        assert s.comm_lb == 2

    def test_iterated_call_weighting_and_chains(self):
        kernel = Module(
            "kernel",
            params=(Q[0], Q[1]),
            body=[
                Operation("H", (Q[0],)),
                Operation("CNOT", (Q[0], Q[1])),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (Q[2],)),
                Operation("PrepZ", (Q[3],)),
                CallSite("kernel", (Q[2], Q[3]), iterations=5),
            ],
        )
        prog = Program([kernel, main], entry="main")
        s = summaries_of(prog)
        assert s["kernel"].param_chains == (2, 1)
        assert s["main"].ops == 2 + 5 * 2
        # q2's chain: its prep plus 5 x kernel's first-param chain.
        assert s["main"].chain == 1 + 5 * 2

    def test_callee_locals_count_once_per_iteration(self):
        helper = Module(
            "helper",
            params=(Q[0],),
            body=[
                Operation("PrepZ", (Q[1],)),
                Operation("CNOT", (Q[0], Q[1])),
                Operation("MeasZ", (Q[1],)),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (Q[2],)),
                CallSite("helper", (Q[2],), iterations=3),
            ],
        )
        s = summaries_of(Program([helper, main], entry="main"))
        assert s["helper"].inline_qubits == 2
        # one frame qubit + 3 iterations x 1 callee-local extra
        assert s["main"].inline_qubits == 1 + 3 * 1

    def test_chain_sums_across_call_sites(self):
        # The same qubit fed through two successive calls accumulates
        # both per-parameter chain contributions (sum, not max).
        kernel = Module(
            "kernel",
            params=(Q[0],),
            body=[
                Operation("H", (Q[0],)),
                Operation("X", (Q[0],)),
            ],
        )
        main = Module(
            "main",
            body=[
                CallSite("kernel", (Q[2],)),
                CallSite("kernel", (Q[2],)),
            ],
        )
        s = summaries_of(Program([kernel, main], entry="main"))
        assert s["main"].chain == 4


class TestScheduleBounds:
    MACHINE = MultiSIMD(k=2, d=2)

    def _dag(self):
        return DependenceDAG(
            [
                Operation("PrepZ", (Q[0],)),
                Operation("PrepZ", (Q[1],)),
                Operation("H", (Q[0],)),
                Operation("CNOT", (Q[0], Q[1])),
                Operation("MeasZ", (Q[1],)),
            ]
        )

    def test_real_schedule_is_clean(self):
        sched = schedule_sequential(self._dag(), k=2, d=2)
        comm = derive_movement(sched, self.MACHINE)
        assert len(audit_schedule_bounds(sched, comm=comm)) == 0

    def test_empty_schedule_is_clean(self):
        sched = Schedule(DependenceDAG([]), k=2, d=2)
        assert len(audit_schedule_bounds(sched)) == 0

    def test_width_over_bound_ql502(self):
        # Two ops on ONE qubit claimed to run in two regions at once:
        # impossible under qubit disjointness (footprint bound is 1).
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("X", (Q[0],))]
        )
        sched = Schedule(dag, k=2, d=2)
        sched.append_timestep({0: [0], 1: [1]})
        codes = [d.code for d in audit_schedule_bounds(sched)]
        assert "QL502" in codes

    def test_length_under_chain_ql504(self):
        # The same two dependent ops compressed into one region slot:
        # length 1 beats the busiest-qubit chain of 2.
        dag = DependenceDAG(
            [Operation("H", (Q[0],)), Operation("X", (Q[0],))]
        )
        sched = Schedule(dag, k=2, d=2)
        sched.append_timestep({0: [0, 1]})
        codes = [d.code for d in audit_schedule_bounds(sched)]
        assert codes == ["QL504"]

    def test_capacity_bound_ql504(self):
        # 4 independent single-qubit ops on a (1,2) machine need
        # ceil(4/2) = 2 timesteps; a 1-timestep schedule is a lie even
        # though no per-qubit chain exceeds 1.
        dag = DependenceDAG(
            [Operation("H", (Q[i],)) for i in range(4)]
        )
        sched = Schedule(dag, k=1, d=2)
        sched.append_timestep({0: [0, 1, 2, 3]})
        codes = [d.code for d in audit_schedule_bounds(sched)]
        assert codes == ["QL504"]

    def test_understated_teleports_ql503(self):
        sched = schedule_sequential(self._dag(), k=2, d=2)
        comm = derive_movement(sched, self.MACHINE)
        lying = dataclasses.replace(comm, teleports=0)
        codes = [
            d.code for d in audit_schedule_bounds(sched, comm=lying)
        ]
        assert codes == ["QL503"]

    def test_understated_comm_cycles_ql503(self):
        sched = schedule_sequential(self._dag(), k=2, d=2)
        comm = derive_movement(sched, self.MACHINE)
        lying = dataclasses.replace(comm, comm_cycles=0)
        codes = [
            d.code for d in audit_schedule_bounds(sched, comm=lying)
        ]
        assert codes == ["QL503"]

    def test_no_movement_plan_skips_comm_checks(self):
        # A schedule that never derived movement has nothing realized
        # to compare — zero teleports is "not yet", not a lie.
        sched = schedule_sequential(self._dag(), k=2, d=2)
        assert len(audit_schedule_bounds(sched)) == 0

    def test_hop_floor_scales_comm_floor(self):
        # This plan bills 16 comm cycles for 6 teleports: fine on a
        # single-hop interconnect, a lie if every teleport provably
        # crosses >= 5 links (floor 5 * 4 = 20 cycles).
        sched = schedule_sequential(self._dag(), k=2, d=2)
        comm = derive_movement(sched, self.MACHINE)
        assert comm.teleports > 0
        clean = audit_schedule_bounds(sched, comm=comm, hop_floor=1)
        assert len(clean) == 0
        hops = -(-(comm.comm_cycles + 1) // 4)  # first floor above
        codes = [
            d.code
            for d in audit_schedule_bounds(
                sched, comm=comm, hop_floor=hops
            )
        ]
        assert "QL503" in codes

    def test_hop_floor_must_be_positive(self):
        import pytest

        sched = schedule_sequential(self._dag(), k=2, d=2)
        with pytest.raises(ValueError):
            audit_schedule_bounds(sched, hop_floor=0)


class TestProfileBounds:
    def _summary(self):
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (Q[0],)),
                Operation("H", (Q[0],)),
                Operation("CNOT", (Q[0], Q[1])),
                Operation("MeasZ", (Q[1],)),
            ],
        )
        return summaries_of(Program([main], entry="main"))["main"]

    def test_consistent_profile_is_clean(self):
        s = self._summary()  # chain 3, comm_lb 2
        lengths = {1: 4, 2: 3}
        runtimes = {1: 12, 2: 11}
        assert len(audit_profile_bounds(lengths, runtimes, s)) == 0

    def test_length_under_chain_ql504(self):
        s = self._summary()
        diags = audit_profile_bounds({2: 2}, {2: 11}, s)
        assert [d.code for d in diags] == ["QL504"]

    def test_runtime_under_comm_floor_ql503(self):
        s = self._summary()
        # chain 3 + one 4-cycle teleport epoch = 7 minimum runtime.
        diags = audit_profile_bounds({2: 3}, {2: 6}, s)
        assert [d.code for d in diags] == ["QL503"]

    def test_empty_module_skipped(self):
        empty = Module("main", body=[])
        s = summaries_of(Program([empty], entry="main"))["main"]
        assert len(audit_profile_bounds({1: 0}, {1: 0}, s)) == 0


class TestWidthFit:
    def _tiny(self) -> Program:
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (Q[0],)),
                Operation("CNOT", (Q[0], Q[1])),
                Operation("MeasZ", (Q[1],)),
            ],
        )
        return Program([main], entry="main")

    def test_overprovisioned_machine_ql501(self):
        result = analyze_deep(self._tiny(), machine=MultiSIMD(k=4, d=4))
        assert [d.code for d in result.diagnostics] == ["QL501"]

    def test_fitting_machine_is_clean(self):
        result = analyze_deep(self._tiny(), machine=MultiSIMD(k=2, d=4))
        assert len(result.diagnostics) == 0

    def test_empty_entry_is_quiet(self):
        prog = Program([Module("main", body=[])], entry="main")
        result = analyze_deep(prog, machine=MultiSIMD(k=4, d=4))
        assert len(result.diagnostics) == 0
