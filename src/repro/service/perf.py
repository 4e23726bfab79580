"""The ``perf`` harness: pinned-grid pipeline benchmarking.

This module makes the pipeline's wall time *measurable and
regression-guarded*:

* a **pinned grid** — every benchmark x {rcp, lpfs} at one fixed
  Multi-SIMD(4,4) configuration — compiled serially and uncached by a
  plain loop over :func:`~repro.toolflow.compile_and_schedule`;
* per-stage **wall time** aggregated from the pipeline's
  :mod:`~repro.instrument` spans, and process **peak RSS** sampled per
  job via ``resource.getrusage`` (no third-party profiler);
* a **machine-speed probe** — about 1 ms of fixed interpreter work,
  timed before every job — summarized as ``probe_s``;
* a schema-versioned report (``repro.bench-perf/3`` —
  ``BENCH_perf.json``) with a hand-rolled validator;
* **scale jobs**: the synthetic paper-scale generators
  (:mod:`repro.benchmarks.scale`) pushed through the streamed *and*
  materialized leaf pipelines in fresh subprocesses, so each job's
  ``ru_maxrss`` is its own high-water mark — yielding
  ``peak_rss_kb_per_mgate``, the memory-per-gate figure the streaming
  pipeline exists to bound, plus the streamed/materialized throughput
  ratio;
* a **baseline comparison** for CI: because the committed baseline was
  measured on different hardware, stage times are first rescaled by the
  ratio of the two documents' ``probe_s``, then any stage slower than
  the scaled baseline by more than ``tolerance`` is flagged. Scale-job
  memory is gated the same way, rescaled by the ratio of the two
  documents' fresh-interpreter RSS (the memory analogue of the speed
  probe) and keyed by the full job label — which embeds the pipeline
  mode, so a streamed measurement is never compared against a
  materialized baseline or vice versa.

Timings take the **minimum across repeats** (the minimum is the
standard low-noise estimator for benchmark wall times); peak RSS takes
the maximum.
"""

from __future__ import annotations

import gc
import math
import time
from statistics import fmean
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..arch.machine import MultiSIMD
from ..benchmarks import BENCHMARKS, benchmark_names
from ..instrument import record_spans
from ..toolflow import SchedulerConfig, compile_and_schedule

__all__ = [
    "PERF_SCHEMA",
    "STAGE_FLOOR_S",
    "perf_grid",
    "run_perf",
    "scale_perf_jobs",
    "run_scale_perf",
    "build_perf_payload",
    "validate_perf_payload",
    "compare_perf_payloads",
]

#: Version tag of the ``BENCH_perf.json`` document layout. Older
#: documents carry no ``probe_s``, so they cannot be rescaled to this
#: machine and are not valid baselines.
PERF_SCHEMA = "repro.bench-perf/3"

#: Baseline stages faster than this (after machine rescaling) are too
#: noisy to gate on and are skipped by :func:`compare_perf_payloads`.
STAGE_FLOOR_S = 0.1

#: Allowed slowdown before a stage counts as a regression (25%).
DEFAULT_TOLERANCE = 0.25

#: Allowed growth in scale-job ``peak_rss_kb_per_mgate`` before it
#: counts as a memory regression (35% — RSS is noisier than time).
DEFAULT_MEMORY_TOLERANCE = 0.35

#: Default post-decompose gate target for the perf scale jobs. Small
#: enough for CI smoke, large enough that per-gate memory dominates
#: the interpreter baseline.
DEFAULT_SCALE_GATES = 200_000

#: Default ingestion window for streamed scale jobs.
DEFAULT_SCALE_WINDOW = 65536

#: Probes timed before each measured job; the job's sample is their
#: minimum, which drops a probe that an interrupt landed in.
_PROBES_PER_JOB = 3

#: The pinned grid's machine point: Multi-SIMD(k=4, d=4) with a 4-qubit
#: scratchpad per region, the paper's favoured configuration family.
PERF_MACHINE = MultiSIMD(k=4, d=4, local_memory=4.0)


def perf_grid() -> Dict[str, Any]:
    """The pinned measurement grid, as the document's ``grid`` records it.

    Every benchmark in the registry, both fine-grained schedulers, at
    :data:`PERF_MACHINE`, each with its registry flattening threshold.
    The grid is pinned so ``BENCH_perf.json`` documents are comparable
    across commits; changing it invalidates committed baselines. The
    record keeps the layout committed baselines carry: its last six
    keys say registry FTh, no engine, one core.
    """
    return {
        "benchmarks": benchmark_names(),
        "algorithms": ["rcp", "lpfs"],
        "ks": [PERF_MACHINE.k],
        "ds": [PERF_MACHINE.d],
        "local_memories": [f"{PERF_MACHINE.local_memory:g}"],
        "fth": None,
        "engine": False,
        "epr_rate": None,
        "topologies": ["none"],
        "cores": [1],
        "link_bw": 1.0,
    }


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _probe() -> float:
    """Seconds for a fixed mix of interpreter work (about 1 ms): dict
    updates, small objects, a keyed sort, integer arithmetic. The
    collector is off while it runs, so the heap size cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        cells = []
        for i in range(600):
            key = (i * 7919) % 409
            table[key] = table.get(key, 0) + i
            cells.append(_Cell(key, i))
        cells.sort(key=lambda c: (c.key, c.value))
        acc = 0
        for c in cells:
            acc ^= c.key + c.value
        for i in range(10_000):
            acc += i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _peak_rss_kb() -> Optional[int]:
    """Process high-water RSS in KiB (None where unsupported).

    Prefers ``/proc/self/status`` ``VmHWM``, which is per-address-space
    and therefore *resets on exec*. ``ru_maxrss`` does not: Linux folds
    the pre-exec (forked-parent copy) watermark into the child's
    accounting, so a scale subprocess spawned from a fat parent would
    inherit the parent's peak and the per-job figure would be
    meaningless.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = usage.ru_maxrss
    if rss <= 0:  # pragma: no cover - defensive
        return None
    # Linux reports KiB; macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - platform
        rss //= 1024
    return int(rss)


def _measure_job(benchmark: str, algorithm: str) -> Dict[str, Any]:
    """One grid job: a machine-speed probe sample (``probe_s``), then
    an uncached compile of the registry benchmark on
    :data:`PERF_MACHINE` timed under a span recorder, then a peak-RSS
    sample.

    The peak RSS is a process-lifetime high-water mark, so the sample
    is monotone across a serial run; the report keeps the maximum,
    which is exactly that watermark. A compile that raises marks the
    job ``"error"`` and the loop goes on, so one failure cannot hide
    the rest of the grid's timings.
    """
    machine = PERF_MACHINE
    outcome: Dict[str, Any] = {
        "label": (
            f"{benchmark} {algorithm} k={machine.k} d={machine.d} "
            f"local={machine.local_memory:g}"
        ),
        "status": "ok",
        "compute_s": 0.0,
        "spans": {},
        "probe_s": min(_probe() for _ in range(_PROBES_PER_JOB)),
    }
    try:
        spec = BENCHMARKS[benchmark]
        program = spec.build()
        start = time.perf_counter()
        with record_spans() as rec:
            compile_and_schedule(
                program, machine, SchedulerConfig(algorithm), fth=spec.fth
            )
        outcome["compute_s"] = time.perf_counter() - start
        outcome["spans"] = rec.to_dict()
    except Exception:  # noqa: BLE001 - reported in failed_jobs
        outcome["status"] = "error"
    outcome["peak_rss_kb"] = _peak_rss_kb()
    return outcome


def scale_perf_jobs(
    target_gates: int = DEFAULT_SCALE_GATES,
    algorithm: str = "lpfs",
    window: int = DEFAULT_SCALE_WINDOW,
    k: int = 4,
    d: int = 4,
    kinds: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """The pinned scale-job list: every synthetic kind through both
    pipeline modes at one machine point.

    The label embeds everything the baseline gate keys on — kind,
    gate target, machine, algorithm, window and **pipeline mode** — so
    streamed and materialized measurements can never cross-compare.
    """
    from ..benchmarks.scale import SCALE_KINDS

    jobs: List[Dict[str, Any]] = []
    for kind in kinds if kinds is not None else SCALE_KINDS:
        for pipeline in ("streamed", "materialized"):
            win = window if pipeline == "streamed" else None
            label = (
                f"scale:{kind}@{target_gates}/k{k}d{d}/{algorithm}"
                f"/{pipeline}"
                + (f"[w={win}]" if win is not None else "")
            )
            jobs.append(
                {
                    "label": label,
                    "kind": kind,
                    "target_gates": target_gates,
                    "algorithm": algorithm,
                    "k": k,
                    "d": d,
                    "window": win,
                    "pipeline": pipeline,
                }
            )
    return jobs


def _measure_scale_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scale job in-process and return its measurement row.

    Meant to run in a *fresh* interpreter (see :func:`run_scale_perf`)
    so ``ru_maxrss`` is this job's own high-water mark; ``interp_rss_kb``
    is sampled before any benchmark work as the machine's memory
    baseline probe.
    """
    interp_rss = _peak_rss_kb()
    t0 = time.perf_counter()

    from ..arch.machine import MultiSIMD
    from ..benchmarks.scale import build_scale
    from ..core.dag import DependenceDAG
    from ..passes.stream import leaf_stream
    from ..sched.comm import derive_movement
    from ..sched.stream import (
        build_columns,
        derive_movement_stream,
        schedule_columns,
    )
    from ..toolflow import SchedulerConfig

    program, total = build_scale(job["kind"], job["target_gates"])
    machine = MultiSIMD(k=job["k"], d=job["d"])
    scheduler = SchedulerConfig(job["algorithm"])
    build_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    if job["pipeline"] == "streamed":
        cols = build_columns(
            leaf_stream(program, program.entry, length_hint=total),
            window=job["window"],
        )
        ssched = schedule_columns(
            cols,
            scheduler.algorithm,
            k=job["k"],
            d=job["d"],
            lpfs_l=scheduler.lpfs_l,
            lpfs_simd=scheduler.lpfs_simd,
            lpfs_refill=scheduler.lpfs_refill,
        )
        schedule_s = time.perf_counter() - t1
        t2 = time.perf_counter()
        stats = derive_movement_stream(cols, ssched, machine)
        length = ssched.length
    else:
        ops = list(leaf_stream(program, program.entry))
        dag = DependenceDAG(ops)
        sched = scheduler.schedule(dag, k=job["k"], d=job["d"])
        schedule_s = time.perf_counter() - t1
        t2 = time.perf_counter()
        stats = derive_movement(sched, machine)
        length = sched.length
    movement_s = time.perf_counter() - t2

    peak = _peak_rss_kb()
    elapsed = time.perf_counter() - t0
    return {
        "label": job["label"],
        "kind": job["kind"],
        "target_gates": job["target_gates"],
        "total_gates": total,
        "algorithm": job["algorithm"],
        "k": job["k"],
        "d": job["d"],
        "window": job["window"],
        "pipeline": job["pipeline"],
        "status": "ok",
        "build_s": build_s,
        "schedule_s": schedule_s,
        "movement_s": movement_s,
        "elapsed_s": elapsed,
        "schedule_length": length,
        "runtime": stats.runtime,
        "interp_rss_kb": interp_rss,
        "peak_rss_kb": peak,
        "peak_rss_kb_per_mgate": (
            peak / (total / 1e6) if peak is not None and total else None
        ),
    }


#: Driver the scale subprocess runs: one job dict (JSON) on stdin, one
#: measurement row (JSON) on stdout. ``python -c`` rather than
#: ``multiprocessing`` spawn because spawn re-executes the parent's
#: ``__main__`` — fragile under pytest, REPLs, and piped scripts.
_SCALE_DRIVER = (
    "import json, sys\n"
    "from repro.service.perf import _measure_scale_job\n"
    "row = _measure_scale_job(json.load(sys.stdin))\n"
    "json.dump(row, sys.stdout)\n"
)


def _run_scale_subprocess(
    job: Dict[str, Any], timeout_s: float
) -> Dict[str, Any]:
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _SCALE_DRIVER],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=timeout_s,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {
            "label": job["label"],
            "pipeline": job.get("pipeline"),
            "status": "timeout",
            "error": f"no result within {timeout_s:g}s",
        }
    if proc.returncode != 0:
        return {
            "label": job["label"],
            "pipeline": job.get("pipeline"),
            "status": "error",
            "error": f"subprocess exited with code {proc.returncode}: "
            + proc.stderr.strip()[-500:],
        }
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {
            "label": job["label"],
            "pipeline": job.get("pipeline"),
            "status": "error",
            "error": "subprocess wrote no parseable result",
        }


def run_scale_perf(
    jobs: Optional[Sequence[Dict[str, Any]]] = None,
    fresh_process: bool = True,
    timeout_s: float = 600.0,
) -> Dict[str, Any]:
    """Measure the scale jobs, each in a fresh subprocess.

    A process-lifetime ``ru_maxrss`` is only meaningful per job when
    each job gets its own process; ``fresh_process=False`` (tests,
    environments that cannot exec) measures inline and marks the
    section accordingly — the RSS columns then read as the parent's
    watermark, monotone across jobs.
    """
    job_list = list(jobs) if jobs is not None else scale_perf_jobs()
    rows: List[Dict[str, Any]] = []
    isolated = fresh_process
    for job in job_list:
        if fresh_process:
            try:
                rows.append(_run_scale_subprocess(job, timeout_s))
                continue
            except OSError:  # pragma: no cover - exec unavailable
                isolated = False
                fresh_process = False
        rows.append(_measure_scale_job(dict(job)))
    return {"process_isolated": isolated, "jobs": rows}


#: One repeat of the grid: its job outcomes in grid order, and its
#: wall-clock seconds.
Repeat = Tuple[List[Dict[str, Any]], float]


def _aggregate(runs: Sequence[Repeat]) -> Dict[str, Any]:
    """Fold repeated runs of one grid into stage/total statistics.

    Per-stage seconds and the compute total take the minimum across
    repeats; call counts must agree across repeats (the pipeline is
    deterministic) and peak RSS takes the maximum.
    """
    totals: List[float] = []
    walls: List[float] = []
    stage_runs: List[Dict[str, Dict[str, float]]] = []
    peak_rss: Optional[int] = None
    failures: List[str] = []
    for outcomes, wall_s in runs:
        total = 0.0
        stages: Dict[str, Dict[str, float]] = {}
        for outcome in outcomes:
            if outcome["status"] != "ok":
                failures.append(outcome["label"])
                continue
            total += outcome["compute_s"]
            rss = outcome.get("peak_rss_kb")
            if rss is not None and (peak_rss is None or rss > peak_rss):
                peak_rss = rss
            for name, stat in outcome["spans"].items():
                agg = stages.get(name)
                if agg is None:
                    agg = stages[name] = {"calls": 0, "seconds": 0.0}
                agg["calls"] += stat["calls"]
                agg["seconds"] += stat["seconds"]
        totals.append(total)
        walls.append(wall_s)
        stage_runs.append(stages)
    names = sorted({name for stages in stage_runs for name in stages})
    stages_min: Dict[str, Dict[str, float]] = {}
    for name in names:
        per_repeat = [s[name] for s in stage_runs if name in s]
        stages_min[name] = {
            "calls": max(int(s["calls"]) for s in per_repeat),
            "seconds": min(s["seconds"] for s in per_repeat),
        }
    return {
        "repeats": len(runs),
        "total_compute_s": min(totals) if totals else 0.0,
        "wall_s": min(walls) if walls else 0.0,
        "peak_rss_kb": peak_rss,
        "stages": stages_min,
        "failed_jobs": sorted(set(failures)),
        "per_job": [
            {
                # The pipeline mode is part of the label (and a field of
                # its own) so baseline gates key on it: a materialized
                # grid time never gates a streamed measurement.
                "label": f"{outcome['label']}/materialized",
                "pipeline": "materialized",
                "compute_s": min(
                    outcomes[i]["compute_s"] for outcomes, _ in runs
                ),
                "status": outcome["status"],
            }
            for i, outcome in enumerate(runs[0][0])
        ],
    }


def run_perf(
    repeats: int = 2,
    jobs: Optional[Sequence[Tuple[str, str]]] = None,
    include_scale: bool = True,
    scale_jobs: Optional[Sequence[Dict[str, Any]]] = None,
    scale_fresh_process: bool = True,
) -> Dict[str, Any]:
    """Measure the pinned grid and return the ``BENCH_perf`` payload.

    ``jobs`` replaces the grid with ``(benchmark, algorithm)`` pairs
    at the same machine point (the document's ``grid`` is then null).
    The jobs run serially, ``repeats`` times. The machine
    probe is timed before every job (:func:`_measure_job`); a repeat's
    mean probe is the machine's speed during that repeat, and the
    document's ``probe_s`` is the minimum of those means — the
    minimum-across-repeats rule the stage times follow. Unless
    ``include_scale`` is false, the scale jobs then run once each in
    fresh subprocesses (:func:`run_scale_perf`) for the per-gate
    memory columns.

    Raises:
        ValueError: when ``repeats < 1`` or the job list is empty.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    grid = perf_grid() if jobs is None else None
    job_list = (
        list(jobs)
        if grid is None
        else [(b, a) for b in grid["benchmarks"] for a in grid["algorithms"]]
    )
    if not job_list:
        raise ValueError("run_perf needs at least one job")

    # Warm-up: one unmeasured job so first-touch costs (module imports,
    # lazily built tables) do not land inside the first measured job's
    # spans and inflate small stages like toolflow:plan.
    _measure_job(*job_list[0])
    runs: List[Repeat] = []
    for _ in range(repeats):
        start = time.perf_counter()
        outcomes = [_measure_job(b, a) for b, a in job_list]
        runs.append((outcomes, time.perf_counter() - start))
    probe_s = min(
        fmean(outcome["probe_s"] for outcome in outcomes)
        for outcomes, _ in runs
    )
    scale = None
    if include_scale:
        scale = run_scale_perf(
            jobs=scale_jobs, fresh_process=scale_fresh_process
        )
    return build_perf_payload(grid, repeats, _aggregate(runs), probe_s, scale)


def _streamed_overhead(scale: Optional[Dict[str, Any]]) -> Optional[float]:
    """Worst streamed/materialized elapsed ratio across scale kinds
    measured in both modes (the tentpole's 1.3x throughput target), or
    ``None`` when no kind has a complete pair."""
    if not scale:
        return None
    by_mode: Dict[Any, Dict[str, float]] = {}
    for row in scale.get("jobs", ()):
        if row.get("status") != "ok":
            continue
        key = (row["kind"], row["target_gates"], row["algorithm"])
        by_mode.setdefault(key, {})[row["pipeline"]] = row["elapsed_s"]
    ratios = [
        modes["streamed"] / modes["materialized"]
        for modes in by_mode.values()
        if "streamed" in modes
        and modes.get("materialized", 0) > 0
    ]
    return max(ratios) if ratios else None


def build_perf_payload(
    grid: Optional[Dict[str, Any]],
    repeats: int,
    fast: Dict[str, Any],
    probe_s: float,
    scale: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned ``BENCH_perf.json`` document."""
    return {
        "schema": PERF_SCHEMA,
        "created_unix": time.time(),
        "grid": grid,
        "repeats": repeats,
        "probe_s": probe_s,
        "fast": fast,
        "scale": scale,
        "streamed_overhead": _streamed_overhead(scale),
    }


def validate_perf_payload(payload: Dict[str, Any]) -> List[str]:
    """Structural check of a ``BENCH_perf.json`` document.

    Returns a list of problems (empty when valid). Hand-rolled rather
    than a jsonschema dependency.
    """
    problems: List[str] = []

    def need(obj: Dict[str, Any], key: str, types, where: str) -> Any:
        if key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            return None
        value = obj[key]
        if types is not None and not isinstance(value, types):
            problems.append(
                f"{where}.{key}: expected {types}, got "
                f"{type(value).__name__}"
            )
            return None
        return value

    def check_side(side: Dict[str, Any], where: str) -> None:
        need(side, "repeats", int, where)
        need(side, "total_compute_s", (int, float), where)
        need(side, "wall_s", (int, float), where)
        if "peak_rss_kb" not in side:
            problems.append(f"{where}: missing key 'peak_rss_kb'")
        need(side, "failed_jobs", list, where)
        stages = need(side, "stages", dict, where)
        for name, stat in (stages or {}).items():
            if not isinstance(stat, dict):
                problems.append(f"{where}.stages[{name!r}]: not an object")
                continue
            need(stat, "calls", int, f"{where}.stages[{name!r}]")
            need(
                stat, "seconds", (int, float), f"{where}.stages[{name!r}]"
            )
        per_job = need(side, "per_job", list, where)
        for i, job in enumerate(per_job or []):
            if not isinstance(job, dict):
                problems.append(f"{where}.per_job[{i}]: not an object")
                continue
            need(job, "label", str, f"{where}.per_job[{i}]")
            need(job, "compute_s", (int, float), f"{where}.per_job[{i}]")
            need(job, "status", str, f"{where}.per_job[{i}]")

    def check_scale(scale: Dict[str, Any], where: str) -> None:
        if "process_isolated" not in scale:
            problems.append(f"{where}: missing key 'process_isolated'")
        rows = need(scale, "jobs", list, where)
        for i, row in enumerate(rows or []):
            at = f"{where}.jobs[{i}]"
            if not isinstance(row, dict):
                problems.append(f"{at}: not an object")
                continue
            need(row, "label", str, at)
            status = need(row, "status", str, at)
            need(row, "pipeline", str, at)
            if status != "ok":
                continue
            need(row, "kind", str, at)
            need(row, "target_gates", int, at)
            need(row, "total_gates", int, at)
            need(row, "elapsed_s", (int, float), at)
            need(row, "schedule_length", int, at)
            if "peak_rss_kb" not in row:
                problems.append(f"{at}: missing key 'peak_rss_kb'")
            if "peak_rss_kb_per_mgate" not in row:
                problems.append(
                    f"{at}: missing key 'peak_rss_kb_per_mgate'"
                )
            if row.get("pipeline") not in ("streamed", "materialized"):
                problems.append(
                    f"{at}.pipeline: expected 'streamed' or "
                    f"'materialized', got {row.get('pipeline')!r}"
                )
            if row.get("pipeline", "") not in row.get("label", ""):
                problems.append(
                    f"{at}: label must embed the pipeline mode"
                )

    if not isinstance(payload, dict):
        return ["payload is not an object"]
    schema = payload.get("schema")
    if schema != PERF_SCHEMA:
        problems.append(
            f"schema: expected {PERF_SCHEMA!r}, got {schema!r}"
        )
    need(payload, "created_unix", (int, float), "$")
    need(payload, "repeats", int, "$")
    probe_s = need(payload, "probe_s", (int, float), "$")
    if probe_s is not None and not (math.isfinite(probe_s) and probe_s > 0):
        problems.append(
            f"$.probe_s: expected a finite number > 0, got {probe_s!r}"
        )
    fast = need(payload, "fast", dict, "$")
    if fast is not None:
        check_side(fast, "fast")
    if "scale" not in payload:
        problems.append("$: missing key 'scale'")
    elif payload["scale"] is not None:
        if not isinstance(payload["scale"], dict):
            problems.append("$.scale: expected dict or null")
        else:
            check_scale(payload["scale"], "scale")
    return problems


def compare_perf_payloads(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    floor_s: float = STAGE_FLOOR_S,
    memory_tolerance: float = DEFAULT_MEMORY_TOLERANCE,
) -> List[str]:
    """Regression check of ``current`` against a committed ``baseline``.

    Both must be valid documents (:func:`validate_perf_payload`). They
    generally come from different machines, so raw seconds are not
    comparable: the ratio of the two documents' ``probe_s`` is a
    machine-speed scale, and baseline stage times are rescaled by it
    before comparison. A stage regresses when::

        current_stage > baseline_stage * scale * (1 + tolerance)

    Stages below ``floor_s`` seconds (after rescaling) are skipped as
    noise. Returns human-readable regression descriptions (empty =
    pass).

    Scale-job **memory** is gated analogously: baseline
    ``peak_rss_kb_per_mgate`` is rescaled by the ratio of the two
    documents' fresh-interpreter RSS (pointer width and allocator
    differences move both the baseline interpreter and the workload
    roughly together) and compared per job, keyed by the full label.
    Labels embed the pipeline mode, so a streamed row only ever gates
    against a streamed baseline row — materialized memory (which grows
    without bound by design) can never mask or trip the streamed gate.
    Jobs present on one side only are skipped.
    """
    problems: List[str] = []
    cur_fast = current.get("fast") or {}
    base_fast = baseline.get("fast") or {}
    scale = current["probe_s"] / baseline["probe_s"]

    def regressed(name: str, cur_s: float, base_s: float) -> None:
        budget = base_s * scale
        if budget < floor_s:
            return
        if cur_s > budget * (1.0 + tolerance):
            problems.append(
                f"{name}: {cur_s:.3f}s vs budget {budget:.3f}s "
                f"(baseline {base_s:.3f}s x machine scale {scale:.2f} "
                f"+ {tolerance:.0%})"
            )

    base_stages = base_fast.get("stages") or {}
    cur_stages = cur_fast.get("stages") or {}
    for name, stat in sorted(base_stages.items()):
        cur = cur_stages.get(name)
        if cur is None:
            # A stage present in the baseline but absent now usually
            # means the pipeline changed shape; not a perf regression.
            continue
        regressed(f"stage {name}", cur["seconds"], stat["seconds"])
    regressed(
        "total compute",
        cur_fast.get("total_compute_s") or 0.0,
        base_fast.get("total_compute_s") or 0.0,
    )

    # -- scale-job memory gate -------------------------------------------
    cur_rows = {
        row["label"]: row
        for row in (current.get("scale") or {}).get("jobs", ())
        if row.get("status") == "ok"
    }
    base_rows = {
        row["label"]: row
        for row in (baseline.get("scale") or {}).get("jobs", ())
        if row.get("status") == "ok"
    }
    interp_pairs = [
        (cur_rows[label].get("interp_rss_kb"),
         base_rows[label].get("interp_rss_kb"))
        for label in cur_rows.keys() & base_rows.keys()
    ]
    interp_pairs = [
        (c, b) for c, b in interp_pairs if c and b
    ]
    mem_scale = 1.0
    if interp_pairs:
        mem_scale = sum(c for c, _ in interp_pairs) / sum(
            b for _, b in interp_pairs
        )
    for label in sorted(cur_rows.keys() & base_rows.keys()):
        cur_row, base_row = cur_rows[label], base_rows[label]
        # Keyed by the full label (pipeline mode included), and double-
        # checked: a mode mismatch means the documents disagree about
        # what the label measures, which must never gate silently.
        if cur_row.get("pipeline") != base_row.get("pipeline"):
            problems.append(
                f"scale {label}: pipeline mode mismatch "
                f"({cur_row.get('pipeline')!r} vs "
                f"{base_row.get('pipeline')!r}); refusing to compare"
            )
            continue
        cur_mem = cur_row.get("peak_rss_kb_per_mgate")
        base_mem = base_row.get("peak_rss_kb_per_mgate")
        if not cur_mem or not base_mem:
            continue
        budget = base_mem * mem_scale
        if cur_mem > budget * (1.0 + memory_tolerance):
            problems.append(
                f"scale {label}: {cur_mem:.0f} KiB/Mgate vs budget "
                f"{budget:.0f} KiB/Mgate (baseline {base_mem:.0f} "
                f"x memory scale {mem_scale:.2f} "
                f"+ {memory_tolerance:.0%})"
            )
    return problems
