"""Tests for the command-line interface."""

import json

import pytest

from repro.benchmarks import benchmark_names
from repro.cli import build_parser, main


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("BF", "BWT", "CN", "Grovers", "GSE", "SHA-1",
                    "Shors", "TFP"):
            assert key in out


class TestEstimate:
    def test_benchmark_estimate(self, capsys):
        assert main(["estimate", "GSE"]) == 0
        out = capsys.readouterr().out
        assert "total gates" in out
        assert "minimum qubits: 13" in out

    def test_unknown_source(self, capsys):
        assert main(["estimate", "NOPE"]) == 2
        assert "neither a benchmark" in capsys.readouterr().err


class TestCompile:
    def test_benchmark_compile(self, capsys):
        assert main(["compile", "GSE", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "comm-aware speedup" in out
        assert "Multi-SIMD(2,inf)" in out

    def test_json_output(self, capsys):
        assert main(["compile", "GSE", "-k", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["machine"]["k"] == 2
        assert data["scheduler"] == "lpfs"
        assert data["total_gates"] > 0

    def test_rcp_selection(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--scheduler", "rcp",
             "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "rcp"

    def test_local_memory_flag(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--local-mem", "inf"]
        ) == 0
        assert "local=inf" in capsys.readouterr().out

    def test_bad_local_memory(self, capsys):
        assert main(["compile", "GSE", "--local-mem", "lots"]) == 2
        assert "bad local-memory" in capsys.readouterr().err

    def test_timeline_and_profile(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--timeline", "4",
             "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "blackbox dimensions" in out
        assert "cycle" in out

    @pytest.mark.parametrize("key", ["BF", "GSE"])
    def test_streamed_timeline_matches_materialized(self, key, capsys):
        """Both pipelines print the same timeline cells. The streamed
        pipeline derives movement epoch-at-a-time without attaching
        it, so its moves column stays blank."""
        argv = ["compile", key, "-k", "2", "--timeline", "20"]
        assert main(argv) == 0
        materialized = _timeline(capsys.readouterr().out)
        assert main(argv + ["--stream"]) == 0
        streamed = _timeline(capsys.readouterr().out)
        moves_at = streamed[0].index("moves")
        assert len(streamed) == len(materialized) == 23
        assert streamed[:2] == materialized[:2]
        for mat_row, row in zip(materialized[2:], streamed[2:]):
            assert row == mat_row[:moves_at].rstrip()

    @pytest.mark.parametrize("key", ["BF", "GSE"])
    def test_streamed_timeline_builds_no_dag(
        self, key, monkeypatch, capsys
    ):
        """The streamed timeline reads the leaf's columns and boxes
        only the ops it prints."""
        from repro.core.dag import DependenceDAG

        def refuse(self, *args, **kwargs):
            raise AssertionError("the streamed timeline built a DAG")

        monkeypatch.setattr(DependenceDAG, "__init__", refuse)
        argv = ["compile", key, "-k", "2", "--stream", "--timeline", "20"]
        assert main(argv) == 0
        assert len(_timeline(capsys.readouterr().out)) == 23

    def test_qasm_file_roundtrip(self, tmp_path, capsys):
        # emit a benchmark, then compile the emitted file.
        target = tmp_path / "prog.qasm"
        assert main(["emit", "GSE", "-o", str(target)]) == 0
        capsys.readouterr()
        assert main(["compile", str(target), "-k", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entry"] == "main"


def _timeline(out: str) -> list:
    """The timeline table of a ``compile --timeline`` run: the header,
    the rule and one row per timestep, then the truncation line."""
    lines = out.split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith("cycle"))
    return [line for line in lines[start:] if line]


class TestStreamedJson:
    """``compile --stream --json`` writes the materialized export,
    less the streamed pipeline's own ``pipeline`` and ``window`` keys:
    non-leaf bodies are the decomposed bodies the coarse pass
    scheduled, in both."""

    @pytest.mark.parametrize(
        "optimize", [False, True], ids=["plain", "optimize"]
    )
    @pytest.mark.parametrize("key", benchmark_names())
    def test_matches_materialized(self, key, optimize, capsys):
        argv = ["compile", key, "-k", "4", "-d", "4", "--json"]
        if optimize:
            argv.append("--optimize")
        docs = []
        for extra in ([], ["--stream"]):
            assert main(argv + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("pipeline", None)
            doc.pop("window", None)
            docs.append(doc)
        assert docs[0] == docs[1]


class TestEmit:
    def test_emit_to_stdout(self, capsys):
        assert main(["emit", "GSE"]) == 0
        out = capsys.readouterr().out
        assert ".module main .entry" in out

    def test_emit_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.qasm"
        assert main(["emit", "Grovers", "-o", str(target)]) == 0
        assert target.exists()
        assert ".module main .entry" in target.read_text()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fth_override(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--fth", "100"]
        ) == 0
        assert "FTh=100" in capsys.readouterr().out


class TestScaffoldInput:
    def test_compile_scaffold_file(self, tmp_path, capsys):
        source = tmp_path / "prog.scaffold"
        source.write_text(
            """
            module box ( qbit a, qbit b, qbit c ) { Toffoli(a, b, c); }
            module main ( ) {
                qreg r[5];
                box(r[0], r[1], r[2]);
                box(r[0], r[3], r[4]);
            }
            """
        )
        assert main(
            ["compile", str(source), "-k", "2", "--fth", "0", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_gates"] == 30

    def test_emit_scaffold_as_qasm(self, tmp_path, capsys):
        source = tmp_path / "prog.scd"
        source.write_text(
            "module main ( ) { qbit a; repeat 9 { H(a); } }"
        )
        assert main(["emit", str(source)]) == 0
        out = capsys.readouterr().out
        assert ".module main .entry" in out


CLEAN_SCAFFOLD = """
module main ( ) {
    qreg q[2];
    PrepZ(q[0]);
    PrepZ(q[1]);
    H(q[0]);
    CNOT(q[0], q[1]);
    MeasZ(q[0]);
    MeasZ(q[1]);
}
"""

# Unknown gate: front-end call-resolution error (QL103).
BROKEN_SCAFFOLD = """
module main ( ) {
    qreg q[2];
    H(q[0]);
    BLORP(q[1]);
}
"""

# Operates on a measured qubit: dataflow error (QL006).
USE_AFTER_MEASURE = """
module main ( ) {
    qbit a;
    PrepZ(a);
    MeasZ(a);
    H(a);
}
"""


class TestLint:
    def test_clean_benchmark_exits_zero(self, capsys):
        assert main(["lint", "Grovers"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_clean_file(self, tmp_path, capsys):
        source = tmp_path / "clean.scd"
        source.write_text(CLEAN_SCAFFOLD)
        assert main(["lint", str(source)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_dirty_file_exits_one(self, tmp_path, capsys):
        source = tmp_path / "dirty.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(["lint", str(source)]) == 1
        out = capsys.readouterr().out
        assert "QL103" in out
        assert "BLORP" in out
        assert "dirty.scd:5" in out

    def test_dataflow_error_exits_one(self, tmp_path, capsys):
        source = tmp_path / "uam.scd"
        source.write_text(USE_AFTER_MEASURE)
        assert main(["lint", str(source)]) == 1
        assert "QL006" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        source = tmp_path / "dirty.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(["lint", str(source), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["error"] >= 1
        codes = {d["code"] for d in data["diagnostics"]}
        assert "QL103" in codes
        entry = next(
            d for d in data["diagnostics"] if d["code"] == "QL103"
        )
        assert entry["severity"] == "error"
        assert entry["location"]["line"] == 5

    def test_fail_on_never(self, tmp_path):
        source = tmp_path / "dirty.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(
            ["lint", str(source), "--fail-on", "never"]
        ) == 0

    def test_fail_on_warning(self, tmp_path):
        # A degenerate loop is a warning-level finding (QL102).
        source = tmp_path / "warn.scd"
        source.write_text(
            """
            module main ( ) {
                qbit a;
                PrepZ(a);
                for i in 0 .. 0 { H(a); }
                MeasZ(a);
            }
            """
        )
        assert main(["lint", str(source)]) == 0
        assert main(
            ["lint", str(source), "--fail-on", "warning"]
        ) == 1

    def test_lint_all_registry(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out or "warning" in out

    def test_unknown_source(self, capsys):
        assert main(["lint", "NOPE"]) == 2
        assert "neither a benchmark" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error_is_three(self, tmp_path, capsys):
        source = tmp_path / "bad.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(["compile", str(source), "-k", "2"]) == 3
        err = capsys.readouterr().err
        assert "BLORP" in err
        assert "line 5" in err

    def test_qasm_parse_error_is_three(self, tmp_path, capsys):
        source = tmp_path / "bad.qasm"
        source.write_text("this is not qasm at all\n")
        assert main(["estimate", str(source)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_strict_analysis_failure_is_one(self, tmp_path, capsys):
        source = tmp_path / "uam.scd"
        source.write_text(USE_AFTER_MEASURE)
        assert main(
            ["compile", str(source), "-k", "2", "--strict"]
        ) == 1
        assert "QL006" in capsys.readouterr().err

    def test_strict_clean_compile_passes(self, capsys):
        assert main(["compile", "GSE", "-k", "2", "--strict"]) == 0
        assert "comm-aware speedup" in capsys.readouterr().out

    def test_schedule_error_is_four(self, monkeypatch, capsys):
        from repro import cli
        from repro.sched.types import ScheduleError

        def boom(*_args, **_kwargs):
            raise ScheduleError("synthetic invariant violation")

        monkeypatch.setattr(cli, "compile_and_schedule", boom)
        assert main(["compile", "GSE", "-k", "2"]) == 4
        assert "synthetic" in capsys.readouterr().err

    def test_replay_error_is_four(self, monkeypatch, capsys):
        from repro import cli
        from repro.sched.replay import ReplayError

        def boom(*_args, **_kwargs):
            raise ReplayError("unrealisable plan")

        monkeypatch.setattr(cli, "compile_and_schedule", boom)
        assert main(["compile", "GSE", "-k", "2"]) == 4
        assert "unrealisable" in capsys.readouterr().err


class TestBadMachineArgs:
    """Bad ``-k``/``-d``/``--window`` values are usage errors (exit 2),
    checked before the verb does any work."""

    VERBS = (
        ["compile", "BF"],
        ["execute", "BF"],
        ["execute", "--stream", "missing.jsonl"],
        ["partition", "BF"],
        ["lint", "BF", "--deep"],
        ["verify", "scale:adder:2000", "--spec", "adder"],
    )

    @pytest.mark.parametrize("flag", ["-k", "-d"])
    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_zero_width_exits_two(self, verb, flag, capsys):
        assert main(verb + [flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"{flag[1]} must be >= 1" in captured.err

    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_too_many_regions_exits_two(self, verb, capsys):
        # Region ids are 16-bit in a flat schedule.
        assert main(verb + ["-k", "65536"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be < 65536, got 65536\n"

    @pytest.mark.parametrize(
        "extra", [[], ["--stream"]], ids=["materialized", "streamed"]
    )
    def test_negative_timeline_exits_two(self, extra, capsys):
        argv = ["compile", "BF", "-k", "2", "--timeline", "-3"] + extra
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --timeline must be >= 0, got -3\n"

    def test_verify_negative_window_exits_two(self, capsys):
        argv = ["verify", "scale:adder:2000", "--spec", "adder"]
        assert main(argv + ["--window", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --window must be >= 0, got -5\n"

    #: Every verb that takes ``--local-mem``.
    LOCAL_MEM_VERBS = (
        ["compile", "BF", "--json"],
        ["execute", "BF"],
        ["execute", "--stream", "missing.jsonl"],
    )

    @pytest.mark.parametrize("verb", LOCAL_MEM_VERBS, ids=" ".join)
    def test_nan_local_mem_exits_two(self, verb, capsys):
        # NaN passes a "< 0" test, and a NaN capacity reaches the JSON
        # report as a bare NaN token, which is not JSON.
        assert main(verb + ["--local-mem", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: local-memory capacity must be >= 0, got 'nan'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["execute", "BF", "-k", "2", "--epr-rate", "nan"],
            ["execute", "--stream", "missing.jsonl", "--epr-rate", "nan"],
            ["execute", "BF", "--topology", "line", "--cores", "2",
             "--link-epr-rate", "nan"],
            ["execute", "BF", "--banks", "2", "--channel-bw", "nan"],
        ],
        ids=" ".join,
    )
    def test_nan_rate_exits_two(self, argv, capsys):
        # NaN passes a "<= 0" test, and a NaN rate fails in the engine
        # with "cannot convert float NaN to integer".
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rate must be positive, got 'nan'\n"
