"""The ``repro.schedule-stream/1`` out-of-core export
(:mod:`repro.service.stream_io`) and its CLI surface.

Covers the JSONL round-trip (plain and gzip), the truncation and
schema guards, inflate-to-boxed-Schedule equality against the
materialized pipeline (moves included — movement derivation is
bit-identical), streamed engine execution matching ``run_schedule``,
trace sampling, and the ``compile --stream`` / ``execute --stream``
verbs.
"""

from __future__ import annotations

import gzip
import json

import pytest

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS
from repro.cli import main
from repro.engine import EngineConfig, run_schedule
from repro.sched import derive_movement
from repro.sched.report import _comm_to_dict, schedule_to_dict
from repro.service import (
    STREAM_SCHEMA,
    execute_schedule_stream,
    inflate_schedule_stream,
    read_schedule_stream,
    validate_schedule_stream,
    write_schedule_stream,
)
from repro.toolflow import (
    SchedulerConfig,
    compile_and_schedule,
    compile_and_schedule_streamed,
)

from .stream_mutations import MALFORMED, assert_located, write_mutated

MACHINE = MultiSIMD(k=4, d=None)
SPEC = BENCHMARKS["BF"]


@pytest.fixture(scope="module")
def bf_pipelines():
    prog = SPEC.build()
    mat = compile_and_schedule(
        prog, MACHINE, SchedulerConfig("lpfs"), fth=SPEC.fth
    )
    res = compile_and_schedule_streamed(
        prog, MACHINE, SchedulerConfig("lpfs"), fth=SPEC.fth, window=64
    )
    name = next(iter(mat.schedules))
    return mat, res, name


@pytest.fixture(params=["bf.jsonl", "bf.jsonl.gz"])
def stream_file(request, tmp_path, bf_pipelines):
    _, res, name = bf_pipelines
    path = str(tmp_path / request.param)
    stats = write_schedule_stream(
        path,
        res.columns[name],
        res.stream_schedules[name],
        MACHINE,
        module=name,
    )
    return path, stats, name


class TestRoundTrip:
    def test_validate_summary(self, stream_file, bf_pipelines):
        path, stats, name = stream_file
        mat, res, _ = bf_pipelines
        summary = validate_schedule_stream(path)
        ssched = res.stream_schedules[name]
        assert summary["schema"] == STREAM_SCHEMA
        assert summary["module"] == name
        assert summary["algorithm"] == "lpfs"
        assert summary["k"] == 4
        assert summary["op_count"] == ssched.op_count
        assert summary["timesteps"] == ssched.length
        assert summary["runtime"] == stats.runtime

    def test_footer_stats_match_compile(self, stream_file, bf_pipelines):
        path, stats, name = stream_file
        mat, _, _ = bf_pipelines
        _, epochs, footer_box = read_schedule_stream(path)
        for _ in epochs:
            pass
        assert footer_box[0] is not None
        assert _comm_to_dict(footer_box[0]) == _comm_to_dict(stats)
        assert _comm_to_dict(stats) == _comm_to_dict(
            mat.profiles[name].comm[4]
        )

    def test_inflate_equals_materialized(self, stream_file, bf_pipelines):
        path, _, name = stream_file
        mat, _, _ = bf_pipelines
        sched, stats = inflate_schedule_stream(path)
        assert schedule_to_dict(sched) == schedule_to_dict(
            mat.schedules[name]
        )


class TestGuards:
    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": "something/9"}) + "\n")
        with pytest.raises(ValueError, match="not a"):
            read_schedule_stream(path)

    def test_truncation_detected(self, stream_file):
        path, _, _ = stream_file
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8") as fh:
            lines = fh.readlines()
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.writelines(lines[:-2])  # drop footer + last epoch
        with pytest.raises(ValueError, match="truncated"):
            validate_schedule_stream(path)

    def test_footer_count_mismatch_detected(self, stream_file):
        path, _, _ = stream_file
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8") as fh:
            lines = fh.readlines()
        del lines[-2]  # drop one epoch, keep the footer
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="footer says"):
            validate_schedule_stream(path)


class TestStreamedExecution:
    def test_ideal_matches_run_schedule(self, stream_file, bf_pipelines):
        path, _, name = stream_file
        mat, _, _ = bf_pipelines
        sched = mat.schedules[name]
        derive_movement(sched, MACHINE)
        ref = run_schedule(sched, MACHINE, scope=name)
        header, res, comm = execute_schedule_stream(path, MACHINE)
        assert header["module"] == name
        assert res.realized_runtime == ref.realized_runtime
        assert res.analytic_runtime == ref.analytic_runtime
        assert res.stalls.to_dict() == ref.stalls.to_dict()
        assert res.epr_pairs == ref.epr_pairs
        assert res.channel_pairs == ref.channel_pairs
        assert res.ops_executed == ref.ops_executed
        assert res.preflight_violations is None
        assert comm is not None and comm.runtime == res.analytic_runtime

    def test_throttled_epr_matches(self, stream_file, bf_pipelines):
        path, _, name = stream_file
        mat, _, _ = bf_pipelines
        config = EngineConfig(epr_rate=0.5, seed=7)
        sched = mat.schedules[name]
        derive_movement(sched, MACHINE)
        ref = run_schedule(sched, MACHINE, config=config, scope=name)
        _, res, _ = execute_schedule_stream(path, MACHINE, config)
        assert res.realized_runtime == ref.realized_runtime
        assert res.stalls.to_dict() == ref.stalls.to_dict()
        assert (
            res.realized_runtime
            == res.analytic_runtime + res.stalls.total
        )

    def test_trace_sampling_thins_gates_not_stalls(self, stream_file):
        path, _, _ = stream_file
        config = EngineConfig(
            epr_rate=0.5, seed=7, collect_trace=True
        )
        _, full, _ = execute_schedule_stream(path, MACHINE, config)
        _, sampled, _ = execute_schedule_stream(
            path, MACHINE, config, sample_every=50
        )
        assert sampled.realized_runtime == full.realized_runtime
        full_events = list(full.trace.events)
        thin_events = list(sampled.trace.events)
        assert len(thin_events) < len(full_events)
        count = lambda evs, cat: sum(1 for e in evs if e.cat == cat)
        assert count(thin_events, "stall") == count(
            full_events, "stall"
        )
        assert count(thin_events, "gate") < count(full_events, "gate")

    def test_numa_refused(self, stream_file):
        from repro.arch.numa import NUMAConfig
        from repro.engine import EngineError

        path, _, _ = stream_file
        config = EngineConfig(numa=NUMAConfig(banks=2))
        with pytest.raises(EngineError, match="NUMA"):
            execute_schedule_stream(path, MACHINE, config)


class TestStreamCLI:
    def test_compile_stream_matches_materialized_output(self, capsys):
        assert main(["compile", "BF", "--stream", "--window", "64"]) == 0
        streamed = capsys.readouterr().out
        assert main(["compile", "BF"]) == 0
        materialized = capsys.readouterr().out
        strip = lambda out: [
            line for line in out.splitlines()
            if not line.startswith("pipeline:")
        ]
        assert strip(streamed) == strip(materialized)

    def test_export_then_execute(self, tmp_path, capsys):
        path = str(tmp_path / "bf.jsonl.gz")
        assert main(
            ["compile", "BF", "--stream", "--export-stream", path]
        ) == 0
        capsys.readouterr()
        assert main(["execute", "--stream", path, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "realized runtime:" in out
        assert "(= analytic)" in out

    def test_execute_stream_rejects_source_and_topology(self, capsys):
        assert main(["execute", "BF", "--stream", "x.jsonl"]) == 2
        assert "replaces the source" in capsys.readouterr().err
        assert main(
            ["execute", "--stream", "x.jsonl", "--topology", "line"]
        ) == 2
        assert "--topology" in capsys.readouterr().err
        assert main(["execute"]) == 2
        assert "needs a source" in capsys.readouterr().err

    def test_execute_stream_missing_file(self, capsys):
        assert main(["execute", "--stream", "/nonexistent.jsonl"]) == 2
        assert "not a readable file" in capsys.readouterr().err

    def test_execute_stream_truncated_file_exit_code(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "bf.jsonl")
        assert main(
            ["compile", "BF", "--stream", "--export-stream", path]
        ) == 0
        capsys.readouterr()
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-2])
        assert main(["execute", "--stream", path]) == 4
        assert "invalid schedule stream" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", MALFORMED)
    def test_execute_stream_malformed_is_located(
        self, mutate, tmp_path, bf_pipelines, capsys
    ):
        _, res, name = bf_pipelines
        good = str(tmp_path / "bf.jsonl")
        write_schedule_stream(
            good, res.columns[name], res.stream_schedules[name], MACHINE,
            module=name,
        )
        bad = str(tmp_path / "bad.jsonl")
        bad_line = write_mutated(good, mutate, bad)
        assert main(["execute", "--stream", bad, "-k", "4"]) == 4
        assert_located(capsys.readouterr().err, bad_line)

    def test_compile_scale_source(self, capsys):
        assert main(
            ["compile", "scale:adder:2000", "--stream",
             "--entry-width-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "widths=entry" in out
        assert "modules flattened:  100%" in out

    def test_bad_scale_source(self, capsys):
        assert main(["compile", "scale:nope:2000"]) == 2
        assert "unknown scale kind" in capsys.readouterr().err
