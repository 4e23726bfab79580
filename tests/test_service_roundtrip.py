"""Round-trip tests for the report serializers the cache is built on."""

import json
import math

import pytest

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core import ProgramBuilder
from repro.core.source import SourceLocation
from repro.sched.report import (
    compile_result_from_dict,
    compile_result_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.toolflow import SchedulerConfig, compile_and_schedule


@pytest.fixture(scope="module")
def bf_result():
    spec = BENCHMARKS["BF"]
    return compile_and_schedule(
        spec.build(), MultiSIMD(k=2), SchedulerConfig("lpfs"),
        fth=spec.fth,
    )


def _small_result(**kwargs):
    pb = ProgramBuilder()
    main = pb.module("main")
    q = main.register("q", 4)
    main.toffoli(q[0], q[1], q[2]).toffoli(q[0], q[2], q[3])
    return compile_and_schedule(pb.build("main"), MultiSIMD(k=2), **kwargs)


def _leaf_schedule(result):
    """Any retained fine-grained schedule (entry may be hierarchical)."""
    return next(iter(sorted(result.schedules.items())))[1]


#: Metrics a rehydrated result must reproduce exactly.
METRICS = (
    "total_gates",
    "critical_path",
    "schedule_length",
    "runtime",
    "naive_runtime",
    "flattened_percent",
    "parallel_speedup",
    "cp_speedup",
    "comm_aware_speedup",
)


class TestRegistryRoundTrip:
    """A cache-rehydrated result equals a fresh compile, field for
    field, for every registry program — the failure class of a cached
    BF that once came back at 299 instead of 1199 cycles."""

    @pytest.mark.parametrize("key", benchmark_names())
    def test_rehydrated_equals_fresh(self, key):
        spec = BENCHMARKS[key]

        def compile_fresh():
            return compile_and_schedule(
                spec.build(),
                MultiSIMD(k=4, d=4, local_memory=4),
                SchedulerConfig("lpfs"),
                fth=spec.fth,
                strict=True,
            )

        data = compile_result_to_dict(compile_fresh(), include_schedules=True)
        back = compile_result_from_dict(json.loads(json.dumps(data)))
        fresh = compile_fresh()

        for metric in METRICS:
            assert getattr(back, metric) == getattr(fresh, metric), metric
        assert back.machine == fresh.machine
        assert back.scheduler == fresh.scheduler
        assert back.diagnostics == fresh.diagnostics

        # Every profile width. CommStats equality compares the EPR
        # channel counts as mappings: the artifact writes channels
        # sorted, and nothing reads their order.
        assert set(back.profiles) == set(fresh.profiles)
        for name, want in fresh.profiles.items():
            got = back.profiles[name]
            assert got.is_leaf == want.is_leaf
            assert got.length == want.length
            assert got.runtime == want.runtime
            assert got.comm == want.comm

        # The hierarchy the engine re-composes over.
        assert (
            back.program.topological_order()
            == fresh.program.topological_order()
        )
        for name, profile in fresh.profiles.items():
            if profile.is_leaf:
                continue
            got_mod = back.program.module(name)
            want_mod = fresh.program.module(name)
            assert got_mod.params == want_mod.params
            assert got_mod.body == want_mod.body

        # Each retained schedule's placement and movement plan.
        assert set(back.schedules) == set(fresh.schedules)
        for name, want in fresh.schedules.items():
            got = back.schedules[name]
            assert (got.k, got.d, got.algorithm) == (
                want.k, want.d, want.algorithm
            )
            assert [got.operation(n) for n in range(got.dag.n)] == [
                want.operation(n) for n in range(want.dag.n)
            ]
            assert len(got.timesteps) == len(want.timesteps)
            for ts_got, ts_want in zip(got.timesteps, want.timesteps):
                assert ts_got.regions == ts_want.regions
                assert ts_got.moves == ts_want.moves


class TestScheduleRoundTrip:
    def test_roundtrip_preserves_structure(self, bf_result):
        sched = _leaf_schedule(bf_result)
        data = json.loads(json.dumps(schedule_to_dict(sched)))
        back = schedule_from_dict(data)
        assert back.k == sched.k
        assert back.d == sched.d
        assert back.algorithm == sched.algorithm
        assert back.length == sched.length
        assert back.op_count == sched.op_count
        assert back.max_width == sched.max_width
        assert back.teleport_moves == sched.teleport_moves
        assert back.local_moves == sched.local_moves

    def test_roundtrip_preserves_placement(self, bf_result):
        sched = _leaf_schedule(bf_result)
        back = schedule_from_dict(schedule_to_dict(sched))
        for ts_a, ts_b in zip(sched.timesteps, back.timesteps):
            assert ts_a.regions == ts_b.regions
            assert ts_a.moves == ts_b.moves
        for n in range(sched.dag.n):
            assert back.operation(n) == sched.operation(n)

    def test_reexport_is_identical(self, bf_result):
        sched = _leaf_schedule(bf_result)
        data = schedule_to_dict(sched)
        assert schedule_to_dict(schedule_from_dict(data)) == data


class TestCompileResultRoundTrip:
    def test_metrics_survive(self, bf_result):
        data = json.loads(json.dumps(compile_result_to_dict(bf_result)))
        back = compile_result_from_dict(data)
        assert back.total_gates == bf_result.total_gates
        assert back.critical_path == bf_result.critical_path
        assert back.schedule_length == bf_result.schedule_length
        assert back.runtime == bf_result.runtime
        assert back.naive_runtime == bf_result.naive_runtime
        assert back.flattened_percent == bf_result.flattened_percent
        assert back.parallel_speedup == pytest.approx(
            bf_result.parallel_speedup
        )
        assert back.cp_speedup == pytest.approx(bf_result.cp_speedup)
        assert back.comm_aware_speedup == pytest.approx(
            bf_result.comm_aware_speedup
        )

    def test_machine_and_scheduler_survive(self, bf_result):
        back = compile_result_from_dict(
            compile_result_to_dict(bf_result)
        )
        assert back.machine == bf_result.machine
        assert back.scheduler == bf_result.scheduler

    def test_profiles_and_comm_stats_survive(self, bf_result):
        back = compile_result_from_dict(
            compile_result_to_dict(bf_result)
        )
        assert set(back.profiles) == set(bf_result.profiles)
        for name, p in bf_result.profiles.items():
            q = back.profiles[name]
            assert q.is_leaf == p.is_leaf
            assert q.length == p.length
            assert q.runtime == p.runtime
            assert q.comm == p.comm

    def test_call_graph_skeleton_survives(self, bf_result):
        # The skeleton covers the *profiled* (reachable) modules; the
        # flattened source program may retain unreachable definitions.
        back = compile_result_from_dict(
            compile_result_to_dict(bf_result)
        )
        assert back.program.entry == bf_result.program.entry
        assert set(back.program.modules) == set(bf_result.profiles)
        for name in back.program.modules:
            assert (
                back.program.module(name).callees()
                == bf_result.program.module(name).callees()
            )
        assert (
            back.program.topological_order()
            == bf_result.program.topological_order()
        )

    def test_schedules_omitted_by_default(self, bf_result):
        data = compile_result_to_dict(bf_result)
        assert "schedules" not in data
        assert compile_result_from_dict(data).schedules == {}

    def test_schedules_included_on_request(self, bf_result):
        data = compile_result_to_dict(
            bf_result, include_schedules=True
        )
        back = compile_result_from_dict(data)
        assert set(back.schedules) == set(bf_result.schedules)
        for name, sched in bf_result.schedules.items():
            assert back.schedules[name].length == sched.length

    def test_infinite_local_memory_survives(self):
        result = _small_result()
        data = compile_result_to_dict(result)
        # d=None (unbounded) is exported as "inf" and parsed back.
        assert data["machine"]["d"] == "inf"
        back = compile_result_from_dict(json.loads(json.dumps(data)))
        assert back.machine.d is None

        inf_result = compile_and_schedule(
            result.program, MultiSIMD(k=2, local_memory=math.inf),
            decompose=False,
        )
        back = compile_result_from_dict(
            json.loads(json.dumps(compile_result_to_dict(inf_result)))
        )
        assert back.machine.local_memory == math.inf

    def test_diagnostics_survive(self):
        result = _small_result(strict=True)
        data = compile_result_to_dict(result)
        back = compile_result_from_dict(json.loads(json.dumps(data)))
        assert back.diagnostics == result.diagnostics


class TestDiagnosticFromDict:
    def test_roundtrip(self):
        diag = Diagnostic(
            code="QL001",
            severity=Severity.WARNING,
            message="qubit q[0] never measured",
            module="main",
            loc=SourceLocation(3, 7, "f.scd"),
        )
        assert Diagnostic.from_dict(diag.to_dict()) == diag

    def test_roundtrip_without_location(self):
        diag = Diagnostic(
            code="QL002",
            severity=Severity.ERROR,
            message="x",
        )
        back = Diagnostic.from_dict(json.loads(json.dumps(diag.to_dict())))
        assert back == diag
