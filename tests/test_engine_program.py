"""Program-level engine tests: hierarchical execution over real
benchmarks, the program analytic-equality invariant, trace payload
assembly, and the metrics contract of ``execute --json``."""

import pytest

from repro.arch.machine import MultiSIMD
from repro.arch.numa import NUMAConfig
from repro.benchmarks import BENCHMARKS
from repro.engine import (
    EngineConfig,
    EngineError,
    FaultConfig,
    execute_result,
    validate_trace_payload,
)
from repro.toolflow import SchedulerConfig, compile_and_schedule


def compiled(name, k=2, scheduler="lpfs", fth=None, **kwargs):
    spec = BENCHMARKS[name]
    return compile_and_schedule(
        spec.build(),
        MultiSIMD(k=k),
        SchedulerConfig(scheduler),
        fth=spec.fth if fth is None else fth,
        **kwargs,
    )


class TestProgramIdealInvariant:
    """Program realized runtime == coarse-composed analytic runtime
    under the ideal config, across benchmarks and schedulers."""

    @pytest.mark.parametrize("name", ["BF", "Grovers", "Shors"])
    @pytest.mark.parametrize(
        "scheduler", ["sequential", "rcp", "lpfs"]
    )
    def test_realized_equals_analytic(self, name, scheduler):
        result = compiled(name, scheduler=scheduler)
        execution = execute_result(result)
        profile = result.profiles[result.program.entry]
        assert execution.analytic_runtime == profile.runtime[2]
        assert execution.realized_runtime == execution.analytic_runtime
        assert execution.ideal_match
        assert execution.stalls.total == 0

    def test_hierarchy_exercises_coarse_path(self):
        execution = execute_result(compiled("BF"))
        assert execution.leaves  # engine-run leaf schedules
        assert execution.coarse  # blackbox-composed callers
        # Every leaf fed its realized runtime back into the coarse
        # scheduler.
        for name, run in execution.leaves.items():
            assert execution.realized[name] == max(
                run.realized_runtime, 1
            )

    def test_low_fth_multiplies_leaves(self):
        deep = execute_result(compiled("Shors", fth=64))
        assert len(deep.leaves) >= 1
        assert len(deep.coarse) >= 1
        assert deep.ideal_match


class TestProgramConstrained:
    def test_finite_rate_only_adds_stalls(self):
        result = compiled("Grovers")
        ideal = execute_result(result)
        tight = execute_result(result, EngineConfig(epr_rate=0.05))
        assert tight.realized_runtime >= ideal.realized_runtime
        assert tight.stalls.epr > 0
        assert tight.stalls.fault == 0

    def test_numa_only_adds_stalls(self):
        result = compiled("Grovers")
        ideal = execute_result(result)
        banked = execute_result(
            result,
            EngineConfig(
                numa=NUMAConfig(banks=2, channel_bandwidth=1.0)
            ),
        )
        assert banked.realized_runtime >= ideal.realized_runtime
        assert banked.stalls.epr == 0
        assert banked.stalls.fault == 0

    def test_faulty_program_is_deterministic(self):
        result = compiled("BF")
        config = EngineConfig(
            epr_rate=0.5,
            faults=FaultConfig(epr_failure_prob=0.2),
            seed=11,
        )
        a = execute_result(result, config)
        b = execute_result(result, config)
        assert a.realized_runtime == b.realized_runtime
        assert a.fault_log.to_dict() == b.fault_log.to_dict()
        assert a.realized_runtime >= execute_result(result).realized_runtime


class TestProgramOutputs:
    def test_trace_payload_validates(self):
        execution = execute_result(compiled("BF"))
        payload = execution.to_trace_payload()
        assert validate_trace_payload(payload) == []
        # Both leaf and coarse sections appear as processes.
        pids = {e["pid"] for e in payload["events"]}
        assert set(execution.leaves) <= pids
        assert set(execution.coarse) <= pids

    def test_metrics_match_execute_json_contract(self):
        # The keys of the ``metrics`` block ``execute --json`` prints.
        metrics = execute_result(compiled("BF")).metrics()
        assert set(metrics) == {
            "engine_runtime",
            "engine_analytic_runtime",
            "engine_stall_cycles",
            "engine_stall_epr",
            "engine_stall_bandwidth",
            "engine_stall_fault",
            "engine_utilization",
            "engine_teleport_rounds",
            "engine_faults",
        }
        assert all(
            isinstance(v, (int, float)) for v in metrics.values()
        )

    def test_to_dict_json_safe(self):
        import json

        doc = execute_result(compiled("BF")).to_dict()
        json.loads(json.dumps(doc))

    def test_refuses_result_without_schedules(self):
        result = compiled("BF", keep_schedules=False)
        with pytest.raises(EngineError):
            execute_result(result)
