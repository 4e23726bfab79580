"""Tests for the multi-core toolflow driver.

The headline guarantee: with one core — any topology — the multi-core
pipeline is bit-identical to the single-core pipeline, for every
benchmark in the registry.
"""

import pytest

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.multicore import (
    CoreGraph,
    MulticoreConfig,
    PartitionError,
    compile_and_schedule_multicore,
    parse_topology,
)
from repro.toolflow import SchedulerConfig, compile_and_schedule

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


def _schedule_fingerprint(sched):
    """Exact content of a schedule: placements and movement plan."""
    return [
        (
            [list(r) for r in ts.regions],
            [repr(m) for m in ts.moves],
        )
        for ts in sched.timesteps
    ]


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
            if not single.schedules[name].timesteps:
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
