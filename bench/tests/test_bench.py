"""Self-tests of the benchmark, on the ``--smoke`` inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, workloads
from bench.speed import Sampler
from bench.trace import Hook, HookError, HOOKS, Tracer, installed

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize(
    "trace, section", [("0", "end_to_end"), ("1", "per_layer")]
)
def test_printed_metrics_are_the_declared_ones(trace, section):
    proc, result = _run("--workload", "verify", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert printed == declared


def test_end_to_end_names_match_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )


def test_tampered_expected_value_fails_the_job(tmp_path):
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    jobs = expected["smoke"]["registry"]["jobs"]
    jobs["BF/lpfs"]["runtime"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    proc, result = _run(
        "--workload", "registry", "--smoke", "--expected", str(tampered)
    )
    assert proc.returncode == 1
    assert result["failed"] == 1 and not result["correct"]
    assert "BF/lpfs" in proc.stderr


def _outputs(workload):
    results = {job.name: job.run() for job in workload.jobs()}
    return (
        [job.name for job in workload.jobs()],
        {name: r.pinned for name, r in results.items()},
        {name: r.varying for name, r in results.items()},
    )


@pytest.mark.parametrize("cls", [workloads.Registry, workloads.Stream])
def test_seed_changes_order_not_outputs(cls, tmp_path):
    order0, pinned0, _ = _outputs(cls(0, workloads.SMOKE, str(tmp_path)))
    order1, pinned1, _ = _outputs(cls(1, workloads.SMOKE, str(tmp_path)))
    assert order0 != order1
    assert pinned0 == pinned1


def test_slow_check_runs_once_per_job_and_fails_it(tmp_path):
    class Checked(workloads.Workload):
        name = "checked"

        def jobs(self):
            return [workloads.Job(
                "job", lambda: workloads.JobResult({}, 1, live="output")
            )]

        def check(self, live):
            return [f"bad {live}"]

    runner = run.Runner(Checked(0, workloads.SMOKE, str(tmp_path)), None)
    with Sampler() as sampler:
        for _ in range(2):
            outcomes = runner.run_pass(sampler)
            assert outcomes[0][1].live is None
            runner.check_pass(outcomes, {})
    assert runner.failures == ["checked job: bad output"]


def test_seed_changes_fault_draws(tmp_path):
    drawn = []
    for seed in (0, 1):
        workload = workloads.Execute(seed, workloads.SMOKE, str(tmp_path))
        workload.fixture()
        try:
            drawn.append(_outputs(workload))
        finally:
            workload.close()
    (_, pinned0, varying0), (_, pinned1, varying1) = drawn
    assert pinned0 == pinned1
    faults = [name for name in varying0 if name.startswith("engine/faults/")]
    assert faults and any(varying0[n] != varying1[n] for n in faults)


def test_missing_hook_target_fails_loudly():
    import repro.toolflow

    original = repro.toolflow.derive_movement
    hooks = (
        HOOKS[0],
        Hook("repro.toolflow.derive_movement", "sched.comm"),
        Hook("repro.toolflow.no_such_entry_point", "toolflow"),
    )
    with pytest.raises(HookError, match="no_such_entry_point"):
        with installed(Tracer(), hooks):
            pass
    assert repro.toolflow.derive_movement is original
    with pytest.raises(HookError, match="no_such_module"):
        with installed(Tracer(), [Hook("repro.no_such_module.f", "toolflow")]):
            pass


def test_every_declared_hook_resolves():
    with installed(Tracer()):
        pass


def _record(tmp_path, label, passes):
    """A one-workload run record whose ``pass_s`` samples are ``passes``."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"workloads": {"registry": {
        "metrics": {"pass_s": {"value": sorted(passes)[len(passes) // 2],
                               "unit": "s"}},
        "samples": {"pass_s": passes},
    }}}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    a = [_record(tmp_path, "a1", [1.0, 1.01]),
         _record(tmp_path, "a2", [0.99, 1.0])]
    b = [_record(tmp_path, "b1", [1.6, 1.61, 1.59])]
    c = [_record(tmp_path, "c1", [1.0, 2.0, 1.0, 2.0])]
    assert run.compare([*a, "--", *a]) == 0
    assert "same" in capsys.readouterr().out
    assert run.compare([*a, "--", *b]) == 1
    assert "worse" in capsys.readouterr().out
    assert run.compare([*b, "--", *a]) == 0
    assert "better" in capsys.readouterr().out
    # One record is enough to see a spread: its passes disagree.
    assert run.compare([*a, "--", *c]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_tree_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
