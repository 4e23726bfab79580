"""The ``verify`` CLI verb: exit-code contract and printed output.

Exit 0 = proven equivalent, 1 = semantic mismatch (minimal
counterexample printed), 2 = usage error, 4 = an op outside the
classical-permutation subset was located (with the offending gate)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.arch.machine import MultiSIMD
from repro.cli import main
from repro.core.qasm import emit_qasm
from repro.service.stream_io import write_schedule_stream
from repro.sim.specs import build_kernel_program
from repro.toolflow import SchedulerConfig, compile_and_schedule_streamed

from .stream_mutations import MALFORMED, assert_located, write_mutated

MACHINE = MultiSIMD(k=4, d=None)


@pytest.fixture(scope="module")
def adder_qasm(tmp_path_factory):
    """A width-4 Cuccaro adder kernel as a QASM file."""
    prog = build_kernel_program("adder", 4)
    path = tmp_path_factory.mktemp("verify") / "adder4.qasm"
    path.write_text(emit_qasm(prog))
    return str(path)


@pytest.fixture(scope="module")
def adder_stream(tmp_path_factory):
    """A schedule-stream export of the width-4 adder kernel."""
    prog = build_kernel_program("adder", 4)
    result = compile_and_schedule_streamed(
        prog, MACHINE, SchedulerConfig("lpfs"), decompose=False,
        window=64, keep_schedules=True,
    )
    path = tmp_path_factory.mktemp("verify") / "adder4.jsonl"
    write_schedule_stream(
        str(path), result.columns["add"], result.stream_schedules["add"],
        MACHINE, module="add",
    )
    qasm = tmp_path_factory.mktemp("verify") / "adder4s.qasm"
    qasm.write_text(emit_qasm(prog))
    return str(qasm), str(path)


class TestSelfCheck:
    def test_schedule_replay_ok(self, adder_qasm, capsys):
        assert main(["verify", adder_qasm]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "add" in out

    def test_window_and_scheduler_flags(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--window", "64",
             "--scheduler", "rcp", "-k", "2"]
        ) == 0
        assert "rcp" in capsys.readouterr().out

    def test_non_reversible_source_refused(self, capsys):
        # scale:adder's entry applies a Hadamard prologue: located by
        # the hierarchical pre-scan, exit 4, no scheduling attempted.
        assert main(["verify", "scale:adder:1e3"]) == 4
        err = capsys.readouterr().err
        assert "H(" in err
        assert "not classically reversible" in err
        assert "--spec" in err


class TestSpecMode:
    def test_exhaustive_adder(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--spec", "adder", "--exhaustive"]
        ) == 0
        out = capsys.readouterr().out
        assert "ripple-carry adder" in out
        assert "all 512 inputs" in out  # 2*4+1 input bits
        assert "schedule replay" in out

    def test_scale_adder_sampled(self, capsys):
        # The H prologue lives in the entry, outside the bound kernel;
        # the spec composes the call multiplicity in closed form.
        assert main(
            ["verify", "scale:adder:1e4", "--spec", "adder",
             "--samples", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "64 sampled inputs" in out
        assert "applications" in out

    def test_no_schedule_skips_second_proof(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--spec", "adder", "--exhaustive",
             "--no-schedule"]
        ) == 0
        assert "schedule replay" not in capsys.readouterr().out

    def test_unknown_spec(self, adder_qasm, capsys):
        assert main(["verify", adder_qasm, "--spec", "nope"]) == 2
        assert "unknown spec" in capsys.readouterr().err

    def test_shape_mismatch_reported(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--spec", "compare"]
        ) == 2
        assert "register shape" in capsys.readouterr().err

    def test_iterations_override(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--spec", "adder", "--exhaustive",
             "--iterations", "3", "--no-schedule"]
        ) == 0
        assert "3 applications" in capsys.readouterr().out

    def test_exhaustive_limit_steers_auto_mode(self, adder_qasm, capsys):
        # 2*4+1 = 9 input bits: sampled below the limit, all inputs at it.
        args = ["verify", adder_qasm, "--spec", "adder", "--no-schedule"]
        assert main(args + ["--exhaustive-limit", "8"]) == 0
        assert "sampled inputs" in capsys.readouterr().out
        assert main(args + ["--exhaustive-limit", "9"]) == 0
        assert "all 512 inputs" in capsys.readouterr().out


class TestStreamMode:
    def test_replay_matches(self, adder_stream, capsys):
        qasm, stream = adder_stream
        assert main(["verify", qasm, "--stream", stream]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupted_stream_mismatch(self, adder_stream, tmp_path,
                                       capsys):
        qasm, stream = adder_stream
        lines = open(stream).read().splitlines()
        header = json.loads(lines[0])
        cnot = header["gates"].index("CNOT")
        for i, line in enumerate(lines[1:], start=1):
            data = json.loads(line)
            if "comm" in data:
                raise AssertionError("no CNOT found")
            hit = False
            for _r, ops in data["regions"]:
                for entry in ops:
                    if entry[1] == cnot and entry[2][0] != entry[2][1]:
                        entry[2].reverse()
                        hit = True
                        break
                if hit:
                    break
            if hit:
                lines[i] = json.dumps(data, separators=(",", ":"))
                break
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", qasm, "--stream", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "counterexample input:" in out

    def test_missing_file(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--stream", "/nonexistent.jsonl"]
        ) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", MALFORMED)
    def test_malformed_stream_is_located(
        self, mutate, adder_stream, tmp_path, capsys
    ):
        qasm, stream = adder_stream
        bad = str(tmp_path / "bad.jsonl")
        bad_line = write_mutated(stream, mutate, bad)
        assert main(["verify", qasm, "--stream", bad]) == 4
        assert_located(capsys.readouterr().err, bad_line)


class TestUsage:
    def test_exhaustive_and_samples_conflict(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--exhaustive", "--samples", "8"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_sample_count(self, adder_qasm, capsys):
        assert main(["verify", adder_qasm, "--samples", "0"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_negative_exhaustive_limit(self, adder_qasm, capsys):
        assert main(
            ["verify", adder_qasm, "--spec", "adder",
             "--exhaustive-limit", "-1", "--no-schedule"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "--exhaustive-limit" in lines[0]

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
    def test_exhaustive_sweep_too_wide_to_hold(self):
        # scale:adder:1e4 binds 33 input bits over 34 qubits, so the
        # exhaustive sweep's lane vectors need about 34 GiB. Under a
        # 2 GiB address-space limit it must be refused before anything
        # is allocated, not end in a MemoryError traceback.
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "verify", "scale:adder:1e4",
             "--spec", "adder", "--exhaustive"],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=limit_memory,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ")
        assert "33 input bits" in lines[0]
        assert "--samples" in lines[0]

    def test_unknown_source(self, capsys):
        assert main(["verify", "NOPE.qasm"]) == 2
