#!/usr/bin/env python3
"""Run the repository benchmark.

One workload, as the harness calls it (last stdout line is the result
JSON: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 bench/run.py --workload registry --seed 0 --seconds 20 --trace 0

Several workloads, each in its own fresh subprocess, one after another,
with the full record written to ``OUT.json`` (and, with ``--trace 1``,
one more traced run per workload whose spans land in
``OUT.trace/<workload>.json``)::

    python3 bench/run.py [--workloads registry stream ...] [--seed N]
                         [--trace 1] -o OUT.json

Compare two sets of such records, metric by metric, with the bounds in
``BENCHMARK.json`` (exit 1 on any "worse")::

    python3 bench/run.py compare A.json [A2.json ...] -- B.json [B2.json ...]

``--write-expected`` re-records ``bench/expected.json``; a change that
claims a performance gain must not run it. The process exits non-zero
if any job failed, and (exit 2) when the tree holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = ROOT / "bench" / "expected.json"
WORK_DIR = ROOT / ".bench_out"

#: A job running longer than this counts as failed (timeout).
JOB_TIMEOUT_S = 120
#: A workload subprocess running longer than this counts as failed.
WORKLOAD_TIMEOUT_S = 900
#: Fewest passes a run makes, even past --seconds (a job's median
#: needs three samples); a traced run alternates untraced and traced
#: passes and makes at least two of each.
MIN_PASSES = 3
TRACED_MIN_PASSES = 2

#: End-to-end metrics as ``(name, unit)``; BENCHMARK.json must agree.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mib", "MiB"),
)

#: One thread per process: the numeric libraries must not fan out.
#: Set before ``repro`` (and numpy) load; child processes inherit it.
_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}


def _use_tree() -> None:
    """Import ``repro`` and the benchmark from this tree, never from an
    installed copy; exit 2 without a result if the tree lacks them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package at {SRC}", file=sys.stderr)
        sys.exit(2)
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ.update(_ENV)
    # Always measure the default pipeline, whatever the caller's shell
    # selects.
    os.environ.pop("REPRO_FASTPATH", None)


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- one workload, in this process --------------------------------------------


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S}s")


def _with_timeout(fn):
    signal.alarm(JOB_TIMEOUT_S)
    try:
        return fn()
    finally:
        signal.alarm(0)


def _forked(check, live) -> List[str]:
    """``check(live)``'s problems, computed in a forked child so that
    what the check allocates never reaches this process's heap or its
    peak RSS. The child inherits no timers and ends before this
    returns."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                problems = check(live)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            with os.fdopen(write_fd, "w") as fh:
                json.dump(problems, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        reply = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not reply:
        return [f"check process ended with exit code {code}"]
    return json.loads(reply)


class Runner:
    """Runs a workload's job list pass after pass and checks outputs."""

    def __init__(self, workload, expected: Optional[Dict[str, Any]]):
        self.workload = workload
        self.jobs = workload.jobs()
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []
        self.first: Dict[str, Any] = {}
        self.pinned: Dict[str, Any] = {}
        self.ops_per_pass: Optional[int] = None
        self.checked: set = set()
        self.checks_s = 0.0

    def run_pass(self, sampler) -> List[Tuple[str, Any, float, float]]:
        """Every job, each timed on its own. Returns ``(job, result or
        exception, seconds, reference seconds)`` per job.

        A job's first result goes through the workload's slow checks
        between jobs, untimed, in a forked child; every result's
        ``live`` output is dropped before the next job. So this process
        never holds more than one result, its heap never sees a check,
        and its peak RSS is that of one job. An untimed full collection
        before each job frees the previous job's cyclic garbage, so a
        job's time does not depend on the job order."""
        outcomes = []
        for job in self.jobs:
            gc.collect()
            timing = sampler.time(lambda: _with_timeout(job.run))
            result = timing.outcome
            if not isinstance(result, Exception):
                if result.live is not None and job.name not in self.checked:
                    self.checked.add(job.name)
                    start = perf_counter()
                    result.problems.extend(
                        _forked(self.workload.check, result.live)
                    )
                    self.checks_s += perf_counter() - start
                result.live = None
            outcomes.append(
                (job.name, result, timing.seconds, timing.reference)
            )
        return outcomes

    def check_pass(
        self,
        outcomes: List[Tuple[str, Any, float, float]],
        times: Dict[str, List[float]],
    ) -> Tuple[float, float]:
        """Check one pass's outputs and file each job's reference time
        in ``times``; returns the pass's job seconds, measured and in
        reference seconds."""
        ops = 0
        wall = 0.0
        ref = 0.0
        for name, result, seconds, reference in outcomes:
            self.attempted += 1
            wall += seconds
            ref += reference
            times.setdefault(name, []).append(reference)
            if isinstance(result, Exception):
                self.fail(name, f"{type(result).__name__}: {result}")
                continue
            problems = list(result.problems)
            if self.expected is not None:
                want = self.expected["jobs"].get(name)
                if want != result.pinned:
                    problems.append(
                        f"outputs {result.pinned} != expected {want}"
                    )
            seen = self.first.setdefault(name, (result.pinned, result.varying))
            if seen != (result.pinned, result.varying):
                problems.append(
                    f"outputs {result.pinned} {result.varying} differ from "
                    f"the first pass's {seen[0]} {seen[1]}"
                )
            for problem in problems:
                self.fail(name, problem)
            ops += result.ops
            self.pinned[name] = result.pinned
        if self.ops_per_pass is None:
            self.ops_per_pass = ops
        return wall, ref

    def final_checks(self) -> None:
        start = perf_counter()
        for name, problem in self.workload.final_checks():
            self.fail(name, problem)
        self.checks_s += perf_counter() - start

    def fail(self, job: str, problem: str) -> None:
        message = f"{self.workload.name} {job}: {problem}"
        print(f"FAILED {message}", file=sys.stderr)
        self.failures.append(message)


def typical_pass(times: Dict[str, List[float]]) -> float:
    """One pass's time, estimated as the sum over the job list of each
    job's median (reference) time across the run's passes: a slow burst
    of the host that the probes miss lands on a few of a job's
    repetitions and rarely moves its median."""
    return sum(statistics.median(samples) for samples in times.values())


def measure_setup(name: str, smoke: bool, launches: int) -> List[float]:
    """Reference seconds of fresh interpreter launches that import
    ``repro``, build the workload's inputs and run its warm-up job.

    Each launch measures its host speed with the probes of
    :mod:`bench.speed` (on whichever CPU it ran) and reports them; the
    probes are taken out of the launch's wall time and scale the rest.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-launch",
           name]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(launches):
        start = perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120,
        )
        seconds = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up launch failed ({proc.returncode}): "
                f"{proc.stderr.strip()[-800:]}"
            )
        probe_s, scale = json.loads(proc.stdout.splitlines()[-1])
        samples.append((seconds - probe_s) * scale)
    return samples


def _setup_launch(name: str, smoke: bool) -> int:
    from bench.speed import Sampler

    def set_up() -> None:
        from bench import workloads

        size = workloads.SMOKE if smoke else workloads.FULL
        workloads.WORKLOADS[name](0, size, str(WORK_DIR)).warmup()

    with Sampler() as sampler:
        timing = sampler.time(set_up)
    if isinstance(timing.outcome, Exception):
        raise timing.outcome
    print(json.dumps([timing.probe_s, timing.reference / timing.seconds]))
    return 0


def _load_expected(path: Path, size: str, name: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return doc[size][name]
    except KeyError:
        raise SystemExit(
            f"bench: {path} has no {size}/{name} entry; "
            "record one with --write-expected"
        ) from None


def _write_expected(path: Path, size: str, name: str, runner: Runner) -> None:
    doc: Dict[str, Any] = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault(size, {})[name] = {
        "ops_per_pass": runner.ops_per_pass,
        "jobs": dict(sorted(runner.pinned.items())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_workload(args: argparse.Namespace, name: str) -> Dict[str, Any]:
    """Measure workload ``name`` in this process; returns its record."""
    from bench import trace as bench_trace
    from bench import workloads
    from bench.speed import Sampler

    size = workloads.SMOKE if args.smoke else workloads.FULL
    setup = measure_setup(name, args.smoke, size.setup_launches)

    workload = workloads.WORKLOADS[name](args.seed, size, str(WORK_DIR))
    workload.warmup()
    start = perf_counter()
    workload.fixture()
    fixture_s = perf_counter() - start
    expected = (
        None if args.write_expected
        else _load_expected(Path(args.expected), size.name, name)
    )
    runner = Runner(workload, expected)
    tracer = bench_trace.Tracer() if args.trace else None
    single = args.smoke or args.write_expected
    min_passes = TRACED_MIN_PASSES if tracer is not None else MIN_PASSES

    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = Sampler()
    times: Dict[str, List[float]] = {}
    traced_times: Dict[str, List[float]] = {}
    walls: List[float] = []
    refs: List[float] = []
    traced: List[Tuple[float, float, float]] = []
    begin = perf_counter()
    try:
        with sampler:
            while True:
                wall, ref = runner.check_pass(runner.run_pass(sampler), times)
                walls.append(wall)
                refs.append(ref)
                if tracer is not None:
                    box: List[Any] = []
                    sampler.paused = True
                    with bench_trace.installed(tracer):
                        wall, residual, self_s = tracer.run_pass(
                            lambda: box.append(runner.run_pass(sampler))
                        )
                    sampler.paused = False
                    jobs_s, _ = runner.check_pass(box[0], traced_times)
                    # The speed probes around each job are in the pass
                    # wall time but belong to no layer.
                    traced.append(
                        (jobs_s, residual - (wall - jobs_s), self_s)
                    )
                elapsed = perf_counter() - begin
                # Stop before a pass would run past --seconds, once the
                # minimum number of passes is in.
                if single or (
                    len(walls) >= min_passes
                    and elapsed * (len(walls) + 1) / len(walls) > args.seconds
                ):
                    break
        peak = _peak_rss_mib()
        runner.final_checks()
    finally:
        workload.close()

    if args.write_expected:
        _write_expected(Path(args.expected), size.name, name, runner)
    ops = (
        runner.ops_per_pass if expected is None else expected["ops_per_pass"]
    )
    pass_s = typical_pass(times)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": args.seed,
        "size": size.name,
        "passes": len(walls),
        "ops_per_pass": ops,
        "fixture_s": fixture_s,
        "checks_s": runner.checks_s,
        "pass_wall_s": walls,
        "job_median_s": {
            job: statistics.median(samples) for job, samples in times.items()
        },
        "failures": runner.failures,
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "ops_per_s": ops / pass_s,
            "peak_rss_mib": peak,
        }
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END
        }
        # What each metric is the median or the estimate of, within this
        # run: ``compare`` reads a side's spread from these.
        record["samples"] = {
            "setup_s": setup,
            "pass_s": refs,
            "ops_per_s": [ops / ref for ref in refs],
            "peak_rss_mib": [peak],
        }
    else:
        overhead = typical_pass(traced_times) / pass_s - 1.0
        metrics = _per_layer(tracer, traced, overhead, runner)
        path = str(WORK_DIR / "trace" / f"{name}.json")
        tracer.write_chrome(path, {"workload": name, "per_layer": {
            k: v["value"] for k, v in metrics.items()}})
        record["trace_file"] = path
    record.update(
        correct=not runner.failures,
        attempted=runner.attempted,
        failed=len(runner.failures),
        metrics=metrics,
    )
    return record


def _per_layer(tracer, traced, overhead: float, runner: Runner) -> Dict[str, Any]:
    """Per-layer metrics, each per traced pass; checks that the self
    times and the residual add up to every traced pass's wall time."""
    from bench.trace import COUNTERS, per_layer_names

    n = len(traced)
    values: Dict[str, float] = {}
    for layer, stat in tracer.layers.items():
        values[f"{layer}.calls"] = stat.calls / n
        values[f"{layer}.self_s"] = stat.self_s / n
        values[f"{layer}.ops"] = stat.ops / n
        values[f"{layer}.ns_per_op"] = (
            stat.self_s * 1e9 / stat.ops if stat.ops else 0.0
        )
        values[f"{layer}.errors"] = stat.errors / n
    for counter, _unit in COUNTERS:
        layer, _, field = counter.rpartition(".")
        values[counter] = tracer.layers[layer].counters.get(field, 0) / n
    values["residual_s"] = statistics.mean(r for _, r, _ in traced)
    values["trace_overhead"] = overhead
    for wall, residual, self_s in traced:
        if abs(self_s + residual - wall) > 0.01 * wall:
            runner.fail(
                "trace",
                f"self times {self_s:.4f}s + residual {residual:.4f}s != "
                f"traced pass wall {wall:.4f}s",
            )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in per_layer_names()
    }


def _result_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def _print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    walls = record["pass_wall_s"]
    q1, med, q3 = _quartiles(walls)
    print(
        f"{name}: {record['passes']} pass(es) (wall median {med:.4g} s, "
        f"q1 {q1:.4g}, q3 {q3:.4g}, max {max(walls):.4g}), fixture "
        f"{record['fixture_s']:.3f} s, {record['attempted']} jobs attempted, "
        f"{record['failed']} failed"
    )
    zero = 0
    for metric, m in record["metrics"].items():
        if m["value"] == 0:
            zero += 1
            continue
        print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
    if zero:
        print(f"  ({zero} metrics of untouched layers read 0)")


# -- several workloads, one subprocess each -----------------------------------


def _child(args, name: str, trace: bool) -> Dict[str, Any]:
    WORK_DIR.mkdir(exist_ok=True)
    record_path = WORK_DIR / f"record-{os.getpid()}-{name}-{int(trace)}.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--expected", str(args.expected), "--record", str(record_path),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.write_expected:
        cmd.append("--write-expected")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=WORKLOAD_TIMEOUT_S,
        )
        for line in proc.stdout.splitlines()[:-1]:
            print(line)
        with open(record_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        problem = f"{name}: workload run did not complete: {exc}"
        print(f"FAILED {problem}", file=sys.stderr)
        return {"workload": name, "correct": False, "attempted": 1,
                "failed": 1, "failures": [problem], "metrics": {}}
    finally:
        if record_path.exists():
            record_path.unlink()


def run_many(args: argparse.Namespace, names: Sequence[str]) -> int:
    doc: Dict[str, Any] = {
        "schema": "repro.bench-run/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
        "workloads": {},
    }
    failed = 0
    for name in names:
        record = _child(args, name, trace=False)
        if args.trace and record["metrics"]:
            traced = _child(args, name, trace=True)
            record["per_layer"] = traced["metrics"]
            trace_file = traced.get("trace_file")
            if trace_file and args.output:
                # Keep the spans beside the record: OUT.trace/<name>.json
                kept = Path(os.path.splitext(args.output)[0] + ".trace")
                kept.mkdir(parents=True, exist_ok=True)
                trace_file = str(kept / f"{name}.json")
                os.replace(traced["trace_file"], trace_file)
            record["trace_file"] = trace_file
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
            record["failures"] += traced["failures"]
            record["correct"] = record["correct"] and traced["correct"]
        doc["workloads"][name] = record
        failed += record["failed"]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(f"{len(names)} workload(s), {failed} failed job(s)")
    return 1 if failed else 0


# -- compare -----------------------------------------------------------------


def _samples(docs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    """A side's samples of ``metric``: the per-pass (``pass_s``,
    ``ops_per_s``) or per-launch (``setup_s``) values within each of its
    records, pooled, so one record has a spread of its own."""
    values: List[float] = []
    for doc in docs:
        record = doc["workloads"].get(workload, {})
        values.extend(record.get("samples", {}).get(metric, []))
    return values


def compare(argv: Sequence[str]) -> int:
    """``compare A.json ... -- B.json ...``: one row per workload and
    end-to-end metric; exit 1 on any "worse".

    Each side's median and quartiles are those of its pooled samples;
    the spread that makes a row "unresolved" is therefore the pass-to-
    pass (and, with several records, run-to-run) spread within one
    side."""
    if "--" not in argv:
        print("usage: run.py compare A.json [A2.json ...] -- B.json [...]",
              file=sys.stderr)
        return 2
    cut = list(argv).index("--")
    sides = []
    for paths in (argv[:cut], argv[cut + 1:]):
        if not paths:
            print("compare: each side needs at least one file", file=sys.stderr)
            return 2
        docs = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        sides.append(docs)
    a_docs, b_docs = sides
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    worse = 0
    def cell(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<10} {'metric':<14} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>8}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = _samples(a_docs, workload, metric["name"])
            b = _samples(b_docs, workload, metric["name"])
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            bound = metric["bound"]
            change = (qb[1] - qa[1]) / qa[1]
            spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
            if max(spreads) > bound:
                verdict = "unresolved"
            else:
                gain = -change if metric["better"] == "lower" else change
                verdict = (
                    "worse" if gain < -bound
                    else "better" if gain > bound
                    else "same"
                )
            worse += verdict == "worse"
            print(
                f"{workload:<10} {metric['name']:<14} {cell(qa):<32} "
                f"{cell(qb):<32} {change:>+8.2%}  {verdict}"
            )
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------


def _parser(names: Sequence[str], run_seconds: int) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md)."
    )
    p.add_argument("--workload", "--workloads", nargs="+", choices=names,
                   help="workload(s) to run (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="how long one run keeps starting passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from traced passes")
    p.add_argument("-o", "--output", help="write the full record here")
    p.add_argument("--smoke", action="store_true",
                   help="small inputs and one pass (self-tests)")
    p.add_argument("--write-expected", action="store_true",
                   help="re-record bench/expected.json")
    p.add_argument("--expected", default=str(EXPECTED_PATH),
                   help=argparse.SUPPRESS)
    p.add_argument("--record", help=argparse.SUPPRESS)
    p.add_argument("--setup-launch", choices=names, help=argparse.SUPPRESS)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    _use_tree()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = _parser(names, spec["run_seconds"]).parse_args(argv)
    if args.setup_launch:
        return _setup_launch(args.setup_launch, args.smoke)
    selected = args.workload or names
    if len(selected) > 1 or args.output:
        return run_many(args, selected)
    record = run_workload(args, selected[0])
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    _print_record(record)
    print(_result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
