"""Tests for the multi-core toolflow driver.

The headline guarantee: with one core — any topology — the multi-core
pipeline is bit-identical to the single-core pipeline, execution
included, for every benchmark in the registry.
"""

import pytest

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core import dag as dag_module
from repro.engine import EngineConfig, execute_result
from repro.multicore import (
    CoreGraph,
    MulticoreConfig,
    PartitionError,
    compile_and_schedule_multicore,
    execute_multicore_result,
    parse_topology,
    prepare_multicore,
    schedule_multicore,
)
from repro.toolflow import (
    SchedulerConfig,
    _candidate_widths,
    compile_and_schedule,
)

#: ``(benchmark, topology, d)`` one-core points on Multi-SIMD(4, d):
#: the whole registry on all-to-all at unbounded d, plus BF and CN on
#: every topology at d=9, where per-core capacity k*d = 36 still holds
#: CN's 35 qubits.
ONE_CORE_POINTS = [
    pytest.param(key, "all-to-all", None, id=key)
    for key in benchmark_names()
] + [
    pytest.param(key, topology, 9, id=f"{key}-{topology}-d9")
    for key in ("BF", "CN")
    for topology in ("line", "mesh", "all-to-all")
]


#: Width-hoist points: every registry benchmark that fits the
#: ``execute`` benchmark's multi-core configuration (a 4-core mesh of
#: Multi-SIMD(4,4) with a 4-qubit scratchpad), and every one that fits
#: a 2-core line of the same cores. SHA-1's leaves need more than
#: 4 x 16 qubits; BWT's, CN's and SHA-1's more than 2 x 16.
HOIST_POINTS = [
    pytest.param(key, "mesh", 4, id=f"{key}-mesh4")
    for key in benchmark_names()
    if key != "SHA-1"
] + [
    pytest.param(key, "line", 2, id=f"{key}-line2")
    for key in benchmark_names()
    if key not in ("BWT", "CN", "SHA-1")
]


def _schedule_fingerprint(sched):
    """Exact content of a schedule: placements and movement plan."""
    return (
        list(sched.ts_off),
        list(sched.flat_regions),
        list(sched.flat_nodes),
        [[repr(m) for m in moves] for moves in sched.moves],
    )


@pytest.fixture(scope="module")
def single_core_results():
    """Single-core compiles on Multi-SIMD(4, d), keyed by
    ``(benchmark, d)`` and built on first use."""
    out = {}

    def result(key, d):
        if (key, d) not in out:
            spec = BENCHMARKS[key]
            out[key, d] = compile_and_schedule(
                spec.build(), MultiSIMD(k=4, d=d), SchedulerConfig(),
                fth=spec.fth,
            )
        return out[key, d]

    return result


class TestOneCoreBitIdentity:
    @pytest.mark.parametrize("key, topology, d", ONE_CORE_POINTS)
    def test_registry_equivalence(
        self, key, topology, d, single_core_results
    ):
        spec = BENCHMARKS[key]
        single = single_core_results(key, d)
        multi = compile_and_schedule_multicore(
            spec.build(),
            MultiSIMD(k=4, d=d),
            MulticoreConfig(parse_topology(topology, 1, 1.0)),
            SchedulerConfig(),
            fth=spec.fth,
        )
        # Headline numbers.
        assert multi.runtime == single.runtime
        assert multi.schedule_length == single.schedule_length
        assert multi.total_gates == single.total_gates
        assert multi.critical_path == single.critical_path
        assert multi.flattened_percent == single.flattened_percent
        # Per-module blackbox dimensions, every width.
        assert set(multi.profiles) == set(single.profiles)
        for name, profile in multi.profiles.items():
            assert profile.length == single.profiles[name].length
            assert profile.runtime == single.profiles[name].runtime
        # Per-leaf schedules, timestep for timestep, move for move.
        assert set(multi.leaf_schedules) == set(single.schedules)
        for name, msched in multi.leaf_schedules.items():
            if not single.schedules[name].length:
                # Empty leaf: nothing to place on any core.
                assert list(msched.core_schedules) == []
            else:
                assert list(msched.core_schedules) == [0]
                assert _schedule_fingerprint(
                    msched.core_schedules[0]
                ) == _schedule_fingerprint(single.schedules[name])
            assert msched.intercore_cycles == 0
        # No inter-core artifacts at all.
        assert multi.intercore_teleports == 0
        assert multi.cut_weight == 0
        # Execution, ideal and EPR-throttled, realizes the same cycles
        # per module. Faults stay off: per-core fault streams are
        # scoped ``name@core0``, so their draws differ by design.
        for config in (EngineConfig(), EngineConfig(epr_rate=0.5)):
            run_single = execute_result(single, config)
            run_multi = execute_multicore_result(multi, config)
            assert run_multi.realized_runtime == run_single.realized_runtime
            assert run_multi.analytic_runtime == run_single.analytic_runtime
            assert run_multi.realized == run_single.realized
            assert run_multi.stalls.total == run_single.stalls.total


class TestMulticoreCompile:
    def test_forced_cut_adds_intercore_cost(self):
        spec = BENCHMARKS["BF"]
        machine = MultiSIMD(k=4, d=2)
        single = compile_and_schedule(
            spec.build(), machine, SchedulerConfig(), fth=spec.fth
        )
        multi = compile_and_schedule_multicore(
            spec.build(),
            machine,
            MulticoreConfig(CoreGraph.line(4)),
            SchedulerConfig(),
            fth=spec.fth,
        )
        assert multi.intercore_teleports > 0
        assert multi.intercore_cycles > 0
        assert multi.cut_weight > 0
        # Intra-core work shrank (narrower per-core schedules) but the
        # composed makespan includes the attributed inter-core cost.
        assert multi.runtime != single.runtime

    def test_makespan_decomposition_per_leaf(self):
        spec = BENCHMARKS["BF"]
        multi = compile_and_schedule_multicore(
            spec.build(),
            MultiSIMD(k=4, d=2),
            MulticoreConfig(CoreGraph.line(4)),
            fth=spec.fth,
        )
        for msched in multi.leaf_schedules.values():
            assert (
                msched.makespan
                == msched.intra_runtime + msched.intercore_cycles
            )

    def test_topology_monotonic_in_hop_distance(self):
        """The partition is topology-independent, so the same cut only
        gets more expensive as hop distances grow: all-to-all is a
        pointwise lower bound on every other topology. CN at d=5 cuts
        across all four cores, so the shapes' makespans differ (BF's
        cut joins only two cores, which are adjacent on every shape)."""
        spec = BENCHMARKS["CN"]
        machine = MultiSIMD(k=4, d=5)

        def compile_on(graph):
            return compile_and_schedule_multicore(
                spec.build(), machine, MulticoreConfig(graph),
                fth=spec.fth,
            )

        a2a = compile_on(CoreGraph.all_to_all(4))
        mesh = compile_on(CoreGraph.mesh(4))
        line = compile_on(CoreGraph.line(4))
        assert a2a.runtime <= mesh.runtime
        assert a2a.runtime <= line.runtime
        # Line routes cross up to three links where all-to-all crosses
        # one: billing every teleport as one hop would tie them.
        assert line.intercore_cycles > a2a.intercore_cycles

    def test_metrics_columns(self):
        spec = BENCHMARKS["BF"]
        multi = compile_and_schedule_multicore(
            spec.build(),
            MultiSIMD(k=4, d=2),
            MulticoreConfig(CoreGraph.mesh(4)),
            fth=spec.fth,
        )
        metrics = multi.metrics()
        assert metrics["multicore_cores"] == 4
        assert metrics["multicore_makespan"] == multi.runtime
        assert set(metrics) == {
            "multicore_cores",
            "multicore_makespan",
            "multicore_intercore_cycles",
            "multicore_intercore_teleports",
            "multicore_intercore_pairs",
            "multicore_cut_weight",
            "multicore_max_hops",
        }

    def test_capacity_overflow_raises(self):
        spec = BENCHMARKS["BF"]
        with pytest.raises(PartitionError):
            compile_and_schedule_multicore(
                spec.build(),
                MultiSIMD(k=1, d=1),
                MulticoreConfig(CoreGraph.line(2)),
                fth=spec.fth,
            )

    def test_partition_determinism_across_runs(self):
        from repro.multicore.partition import assignment_signature

        spec = BENCHMARKS["GSE"]
        machine = MultiSIMD(k=4, d=4)
        config = MulticoreConfig(CoreGraph.mesh(4), seed=7)
        a = compile_and_schedule_multicore(
            spec.build(), machine, config, fth=spec.fth
        )
        b = compile_and_schedule_multicore(
            spec.build(), machine, config, fth=spec.fth
        )
        for name in a.partitions:
            assert assignment_signature(
                a.partitions[name].assignment
            ) == assignment_signature(b.partitions[name].assignment)
        assert a.runtime == b.runtime


def _assert_same_multicore_schedule(got, want):
    """Field-by-field equality of two leaf multi-core schedules."""
    assert got.graph == want.graph
    assert got.partition == want.partition
    assert got.core_machine == want.core_machine
    assert got.algorithm == want.algorithm
    assert got.statement_core == want.statement_core
    assert got.epochs == want.epochs
    assert list(got.core_schedules) == list(want.core_schedules)
    for core, sched in got.core_schedules.items():
        other = want.core_schedules[core]
        assert (sched.k, sched.d, sched.algorithm) == (
            other.k, other.d, other.algorithm
        )
        assert sched.dag.statements == other.dag.statements
        assert _schedule_fingerprint(sched) == _schedule_fingerprint(other)
    assert got.core_comm == want.core_comm


class TestWidthHoist:
    """The leaf step splits each leaf over the cores once and schedules
    that split at every candidate width; every width must equal the
    width scheduled alone from a fresh split."""

    @pytest.mark.parametrize("key, topology, cores", HOIST_POINTS)
    def test_each_width_matches_a_fresh_preparation(
        self, key, topology, cores, monkeypatch
    ):
        built = []

        class CountedColumns(dag_module.DAGColumns):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(None)

        monkeypatch.setattr(dag_module, "DAGColumns", CountedColumns)
        spec = BENCHMARKS[key]
        machine = MultiSIMD(k=4, d=4, local_memory=4)
        graph = parse_topology(topology, cores)
        scheduler = SchedulerConfig()
        result = compile_and_schedule_multicore(
            spec.build(), machine, MulticoreConfig(graph), scheduler,
            fth=spec.fth,
        )
        # One int-coded view per core DAG and leaf, not per width, and
        # none still memoized once the leaf's last width is done.
        core_dags = [
            sched.dag
            for msched in result.leaf_schedules.values()
            for sched in msched.core_schedules.values()
        ]
        assert len(built) == len(core_dags)
        assert all(dag._columns is None for dag in core_dags)

        widths = _candidate_widths(machine.k)
        assert len(widths) > 1
        for name, hoisted in result.leaf_schedules.items():
            body = result.program.module(name).body
            part = result.partitions[name]
            profile = result.profiles[name]
            for w in widths:
                alone = schedule_multicore(
                    prepare_multicore(body, graph, part),
                    machine.with_k(w),
                    scheduler,
                )
                assert profile.length[w] == max(alone.intra_length, 1)
                assert profile.runtime[w] == max(alone.makespan, 1)
            _assert_same_multicore_schedule(hoisted, alone)
