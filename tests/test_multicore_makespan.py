"""Tests for the inter-core makespan scheduler."""

import math

from repro.arch.machine import TELEPORT_CYCLES, MultiSIMD
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.multicore.makespan import (
    prepare_multicore,
    schedule_multicore,
    statement_cores,
)
from repro.multicore.partition import PartitionReport, partition_qubits
from repro.multicore.topology import CoreGraph
from repro.sched.comm import derive_movement
from repro.toolflow import SchedulerConfig

Q = [Qubit("q", i) for i in range(8)]


def _pin(assignment, cores):
    """A hand-built partition pinning specific qubits to cores."""
    occupancy = [0] * cores
    for core in assignment.values():
        occupancy[core] += 1
    return PartitionReport(
        cores=cores,
        capacity=math.inf,
        assignment=dict(assignment),
        cut_edges=0,
        cut_weight=0,
        total_weight=0,
        occupancy=tuple(occupancy),
        refined=False,
        moves=0,
        seed=0,
    )


class TestStatementCores:
    def test_majority_vote(self):
        assignment = {Q[0]: 1, Q[1]: 1, Q[2]: 0}
        stmts = [Operation("Toffoli", (Q[0], Q[1], Q[2]))]
        assert statement_cores(stmts, assignment) == [1]

    def test_tie_breaks_low(self):
        assignment = {Q[0]: 2, Q[1]: 1}
        stmts = [Operation("CNOT", (Q[0], Q[1]))]
        assert statement_cores(stmts, assignment) == [1]


class TestMakespan:
    def test_no_cut_no_intercore_cost(self):
        stmts = [Operation("CNOT", (Q[0], Q[1]))] * 3
        graph = CoreGraph.line(2)
        part = _pin({Q[0]: 0, Q[1]: 0}, 2)
        msched = schedule_multicore(
            prepare_multicore(stmts, graph, part),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        assert msched.intercore_cycles == 0
        assert msched.epochs == []
        assert msched.makespan == msched.intra_runtime
        assert msched.occupied_cores == [0]

    def test_cut_pays_teleport_epoch(self):
        stmts = [Operation("CNOT", (Q[0], Q[1]))]
        graph = CoreGraph.line(2)
        part = _pin({Q[0]: 0, Q[1]: 1}, 2)
        msched = schedule_multicore(
            prepare_multicore(stmts, graph, part),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        # One qubit crosses one link: one 4-cycle epoch.
        assert msched.intercore_teleports == 1
        assert msched.intercore_pairs == 1
        assert msched.intercore_cycles == TELEPORT_CYCLES
        assert msched.makespan == msched.intra_runtime + TELEPORT_CYCLES
        assert msched.max_hops == 1
        assert msched.min_cut_hops == 1

    def test_hop_distance_scales_rounds(self):
        """The same cut pays more on a line (2 hops) than all-to-all
        (1 hop): each extra link is a serial teleport round."""
        stmts = [Operation("CNOT", (Q[0], Q[1]))]
        pin = {Q[0]: 0, Q[1]: 2}
        far = schedule_multicore(
            prepare_multicore(stmts, CoreGraph.line(3), _pin(pin, 3)),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        near = schedule_multicore(
            prepare_multicore(stmts, CoreGraph.all_to_all(3), _pin(pin, 3)),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        assert far.max_hops == 2
        assert far.intercore_cycles == 2 * TELEPORT_CYCLES
        assert near.max_hops == 1
        assert near.intercore_cycles == TELEPORT_CYCLES
        # EPR pairs consumed = links crossed, attributed per link.
        assert far.intercore_pairs == 2
        assert sum(far.link_pairs().values()) == 2
        assert far.intra_runtime == near.intra_runtime
        assert near.makespan <= far.makespan

    def test_link_bandwidth_serializes_rounds(self):
        """Congested links serialize: on a line, gathering q1 and q2
        at core 0 routes two pairs over link (0, 1) in one epoch, so a
        sub-unit link bandwidth forces extra teleport rounds."""
        # One vote per core: the tie breaks to core 0, so q1 (one hop)
        # and q2 (two hops, via core 1) both cross link (0, 1).
        stmts = [Operation("Toffoli", (Q[0], Q[1], Q[2]))]
        pin = {Q[0]: 0, Q[1]: 1, Q[2]: 2}
        narrow = schedule_multicore(
            prepare_multicore(
                stmts, CoreGraph.line(3, bandwidth=0.5), _pin(pin, 3)
            ),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        wide = schedule_multicore(
            prepare_multicore(
                stmts, CoreGraph.line(3, bandwidth=2.0), _pin(pin, 3)
            ),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        assert narrow.epochs[0].core == 0
        assert narrow.epochs[0].link_loads[(0, 1)] == 2
        # Hop depth alone needs 2 rounds; a half-pair-per-round link
        # stretches the congested epoch to ceil(2 / 0.5) = 4.
        assert wide.epochs[0].rounds == 2
        assert narrow.epochs[0].rounds == 4
        assert narrow.intercore_cycles == 4 * TELEPORT_CYCLES
        assert wide.intercore_cycles == 2 * TELEPORT_CYCLES

    def test_residency_migrates(self):
        """A transferred qubit stays at its destination: the second
        statement on the same pair pays nothing."""
        stmts = [
            Operation("CNOT", (Q[0], Q[1])),
            Operation("CNOT", (Q[0], Q[1])),
        ]
        part = _pin({Q[0]: 0, Q[1]: 1}, 2)
        msched = schedule_multicore(
            prepare_multicore(stmts, CoreGraph.line(2), part),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        assert len(msched.epochs) == 1
        assert msched.intercore_teleports == 1

    def test_intra_runtime_is_slowest_core(self):
        stmts = (
            [Operation("T", (Q[0],))] * 6 + [Operation("T", (Q[1],))]
        )
        part = _pin({Q[0]: 0, Q[1]: 1}, 2)
        graph = CoreGraph.line(2)
        machine = MultiSIMD(k=2)
        msched = schedule_multicore(
            prepare_multicore(stmts, graph, part),
            machine, SchedulerConfig(),
        )
        runtimes = {
            core: msched.core_comm[core].runtime
            for core in msched.core_schedules
        }
        assert msched.intra_runtime == max(runtimes.values())

    def test_single_core_matches_direct_schedule(self):
        """With one core the multicore scheduler is exactly the
        single-core scheduler plus zero inter-core cost."""
        stmts = [
            Operation("CNOT", (Q[0], Q[1])),
            Operation("H", (Q[0],)),
            Operation("CNOT", (Q[1], Q[2])),
        ]
        graph = CoreGraph.all_to_all(1)
        part = partition_qubits(stmts, graph)
        machine = MultiSIMD(k=2)
        config = SchedulerConfig()
        msched = schedule_multicore(
            prepare_multicore(stmts, graph, part),
            machine, config,
        )
        from repro.core.dag import DependenceDAG

        direct = config.schedule(
            DependenceDAG(stmts), k=machine.k, d=machine.d
        )
        single = msched.core_schedules[0]
        assert [
            [list(r) for r in ts.regions] for ts in single.timesteps
        ] == [
            [list(r) for r in ts.regions] for ts in direct.timesteps
        ]
        assert msched.intercore_cycles == 0
        assert (
            msched.intra_runtime
            == derive_movement(direct, machine).runtime
        )

    def test_audit_clean_schedule(self):
        from repro.multicore.audit import audit_multicore_bounds

        stmts = [Operation("CNOT", (Q[0], Q[1]))]
        part = _pin({Q[0]: 0, Q[1]: 1}, 2)
        msched = schedule_multicore(
            prepare_multicore(stmts, CoreGraph.line(2), part),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        assert len(audit_multicore_bounds(msched, module="leaf")) == 0

    def test_audit_flags_understated_intercore_cycles(self):
        import dataclasses

        from repro.multicore.audit import audit_multicore_bounds

        stmts = [Operation("CNOT", (Q[0], Q[1]))]
        part = _pin({Q[0]: 0, Q[1]: 2}, 3)
        msched = schedule_multicore(
            prepare_multicore(stmts, CoreGraph.line(3), part),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        # Zero out the epoch billing while keeping the transfers: now
        # the leaf claims cut teleports cost nothing.
        lying = dataclasses.replace(
            msched,
            epochs=[
                dataclasses.replace(e, cycles=0, rounds=0)
                for e in msched.epochs
            ],
        )
        diags = audit_multicore_bounds(lying, module="leaf")
        assert [d.code for d in diags] == ["QL503"]
        assert diags[0].module == "leaf"

    def test_to_dict_round_trippable_summary(self):
        stmts = [Operation("CNOT", (Q[0], Q[1]))]
        part = _pin({Q[0]: 0, Q[1]: 1}, 2)
        msched = schedule_multicore(
            prepare_multicore(stmts, CoreGraph.line(2), part),
            MultiSIMD(k=2), SchedulerConfig(),
        )
        doc = msched.to_dict()
        assert doc["makespan"] == msched.makespan
        assert doc["intercore_cycles"] == msched.intercore_cycles
        assert doc["topology"]["schema"] == "repro.core-graph/1"
