"""Tests for the ``execute`` CLI verb: the exit-code contract, the
preflight refusal path, JSON output, and Chrome trace export."""

import json

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.qubits import Qubit
from repro.sched.types import Move


class TestExecuteBasics:
    def test_text_output(self, capsys):
        assert main(["execute", "BF", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "analytic runtime" in out
        assert "(= analytic)" in out  # ideal config matches exactly
        assert "preflight:         passed" in out

    def test_json_output(self, capsys):
        assert main(["execute", "BF", "-k", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["realized_runtime"] == doc["analytic_runtime"]
        assert doc["machine"]["k"] == 2
        assert doc["scheduler"] == "lpfs"
        assert doc["metrics"]["engine_stall_cycles"] == 0

    def test_scheduler_selection(self, capsys):
        assert main(
            ["execute", "BF", "-k", "2", "--scheduler", "sequential",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheduler"] == "sequential"
        assert doc["realized_runtime"] == doc["analytic_runtime"]

    def test_unknown_source(self, capsys):
        assert main(["execute", "NOPE"]) == 2
        assert "neither a benchmark" in capsys.readouterr().err

    def test_bad_epr_rate(self, capsys):
        assert main(["execute", "BF", "--epr-rate", "fast"]) == 2
        assert "rate" in capsys.readouterr().err


class TestExecuteConstrained:
    def test_finite_rate_stalls_reported(self, capsys):
        assert main(
            ["execute", "Grovers", "-k", "2", "--epr-rate", "0.05",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stalls"]["epr"] > 0
        assert doc["realized_runtime"] > doc["analytic_runtime"]

    def test_fault_flags_deterministic(self, capsys):
        argv = ["execute", "BF", "-k", "2", "--epr-rate", "0.5",
                "--fault-epr", "0.3", "--seed", "9", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["faults"]["epr_regenerations"] >= 0

    def test_qecc_level_enables_gate_errors(self, capsys):
        assert main(
            ["execute", "BF", "-k", "2", "--qecc-level", "1",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine_config"]["faults"]["gate_error_rate"] > 0


class TestExecutePreflight:
    @pytest.fixture
    def corrupted_compile(self, monkeypatch):
        """compile_and_schedule that sabotages one movement plan."""
        real = cli.compile_and_schedule

        def sabotage(*args, **kwargs):
            result = real(*args, **kwargs)
            sched = next(iter(result.schedules.values()))
            target = next(moves for moves in sched.moves if moves)
            target.append(
                Move(
                    Qubit("ghost", 0),
                    ("region", 1),
                    ("region", 0),
                    "teleport",
                )
            )
            return result

        monkeypatch.setattr(cli, "compile_and_schedule", sabotage)

    def test_refused_with_exit_4(self, corrupted_compile, capsys):
        assert main(["execute", "BF", "-k", "2"]) == 4
        err = capsys.readouterr().err
        assert "preflight replay" in err
        assert "--no-preflight" in err
        assert "QL3" in err  # individual violation codes listed

    def test_no_preflight_overrides(self, corrupted_compile, capsys):
        assert main(
            ["execute", "BF", "-k", "2", "--no-preflight", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["realized_runtime"] > 0


class TestExecuteTrace:
    def test_trace_file_written(self, tmp_path, capsys):
        out = tmp_path / "bf.trace"
        assert main(
            ["execute", "BF", "-k", "2", "--trace", str(out)]
        ) == 0
        assert "trace events to" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        phases = {r["ph"] for r in doc["traceEvents"]}
        assert {"M", "X"} <= phases
        assert doc["otherData"]["schema"] == "repro.trace/1"

    def test_trace_covers_leaf_and_coarse(self, tmp_path, capsys):
        out = tmp_path / "bf.trace"
        assert main(
            ["execute", "BF", "-k", "2", "--trace", str(out),
             "--json"]
        ) == 0
        doc = json.loads(out.read_text())
        processes = {
            r["args"]["name"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert "walk_step" in processes  # leaf schedule
        assert "main" in processes  # coarse caller

    def test_constrained_faulty_run_with_trace(self, tmp_path, capsys):
        """A throttled, faulty run stalls on EPR, never beats the
        analytic runtime, and still writes a valid trace."""
        out = tmp_path / "grovers.trace"
        assert main(
            ["execute", "Grovers", "-k", "2", "--epr-rate", "0.1",
             "--fault-epr", "0.2", "--seed", "3", "--trace", str(out),
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stalls"]["epr"] > 0
        assert doc["realized_runtime"] >= doc["analytic_runtime"]
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["schema"] == "repro.trace/1"
