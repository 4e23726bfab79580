"""Parallel batch sweeps over benchmark x configuration grids.

The paper's evaluation is a family of grids — (benchmark x scheduler x
k x d x FTh x local-memory) — and this module is the execution layer
for them: expand a :class:`SweepGrid` into :class:`JobSpec` jobs, fan
them out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(sharing one on-disk artifact store), and collect a deterministic,
schema-versioned report (``BENCH_sweep.json``).

Failure semantics of :func:`run_sweep`:

* **per-job timeout** — a job that exceeds ``timeout`` seconds is
  reported with status ``"timeout"`` and the sweep continues;
* **worker crash** — if the process pool breaks (a worker died), every
  job still outstanding is retried exactly once in a fresh pool;
* **graceful degradation** — if the pool breaks again, the remaining
  jobs run serially in-process (``degraded_to_serial`` is set on the
  run);
* results are keyed by job index throughout, so the output order is
  the grid expansion order regardless of completion order.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis import AnalysisError
from ..arch.machine import MultiSIMD, capacity_label, parse_capacity
from ..benchmarks import BENCHMARKS, benchmark_names
from ..core.module import ProgramValidationError
from ..core.qasm import QasmSyntaxError
from ..core.scaffold import ScaffoldSyntaxError
from ..sched.replay import ReplayError
from ..sched.types import ScheduleError
from ..toolflow import SchedulerConfig
from .core import CompileService
from .fingerprint import PIPELINE_VERSION

__all__ = [
    "ACCEPTED_SCHEMAS",
    "SWEEP_SCHEMA",
    "JobSpec",
    "SweepGrid",
    "SweepRun",
    "execute_job",
    "run_sweep",
    "build_sweep_payload",
    "validate_sweep_payload",
]

#: Version tag of the ``BENCH_sweep.json`` document layout. ``/2``
#: added the opt-in engine columns (``engine_*`` metrics, ``engine`` /
#: ``epr_rate`` job fields); ``/3`` added the multi-core axis
#: (``topology`` / ``cores`` / ``link_bw`` job fields and the
#: ``multicore_*`` metric columns). Older documents remain valid.
SWEEP_SCHEMA = "repro.bench-sweep/3"

#: Schema tags :func:`validate_sweep_payload` accepts.
ACCEPTED_SCHEMAS = (
    "repro.bench-sweep/1",
    "repro.bench-sweep/2",
    SWEEP_SCHEMA,
)

#: Scalar metrics exported per job (attribute names on CompileResult).
_METRIC_FIELDS = (
    "total_gates",
    "critical_path",
    "schedule_length",
    "runtime",
    "naive_runtime",
    "parallel_speedup",
    "cp_speedup",
    "comm_aware_speedup",
    "flattened_percent",
)

#: Engine metrics added per job when ``engine=True`` (schema ``/2``).
_ENGINE_METRIC_FIELDS = (
    "engine_runtime",
    "engine_analytic_runtime",
    "engine_stall_cycles",
    "engine_stall_epr",
    "engine_stall_bandwidth",
    "engine_stall_fault",
    "engine_utilization",
    "engine_teleport_rounds",
    "engine_faults",
)

#: Multi-core metrics added per job when ``topology`` is set
#: (schema ``/3``; attribute names on ``MulticoreCompileResult``).
_MULTICORE_METRIC_FIELDS = (
    "multicore_cores",
    "multicore_makespan",
    "multicore_intercore_cycles",
    "multicore_intercore_teleports",
    "multicore_intercore_pairs",
    "multicore_cut_weight",
    "multicore_max_hops",
)


@dataclass(frozen=True)
class JobSpec:
    """One point of a sweep grid.

    ``fth=None`` means "use the benchmark registry's per-benchmark
    flattening threshold". ``engine=True`` additionally executes the
    compiled schedules on the discrete-event engine
    (:mod:`repro.engine`) at EPR generation rate ``epr_rate``
    (``None`` = infinite), adding the ``engine_*`` metric columns.

    ``topology`` (schema ``/3``) routes the job through the multi-core
    pipeline (:mod:`repro.multicore`): ``cores`` cores of
    ``Multi-SIMD(k,d)`` each — ``k`` is *per core* — joined by the
    named interconnect with ``link_bw`` EPR pairs per teleport round
    per link, adding the ``multicore_*`` metric columns. With
    ``engine=True``, ``epr_rate`` throttles both the per-core pools
    and the interconnect links.
    """

    benchmark: str
    algorithm: str = "lpfs"
    k: int = 4
    d: Optional[int] = None
    local_memory: Optional[float] = None
    fth: Optional[int] = None
    engine: bool = False
    epr_rate: Optional[float] = None
    topology: Optional[str] = None
    cores: int = 1
    link_bw: float = 1.0

    @property
    def label(self) -> str:
        d = "inf" if self.d is None else str(self.d)
        parts = [
            self.benchmark,
            self.algorithm,
            f"k={self.k}",
            f"d={d}",
            f"local={capacity_label(self.local_memory)}",
        ]
        if self.fth is not None:
            parts.append(f"fth={self.fth}")
        if self.topology is not None:
            parts.append(
                f"{self.topology}x{self.cores}(bw={self.link_bw:g})"
            )
        if self.engine:
            rate = (
                "inf" if self.epr_rate is None else f"{self.epr_rate:g}"
            )
            parts.append(f"engine(rate={rate})")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "benchmark": self.benchmark,
            "algorithm": self.algorithm,
            "k": self.k,
            "d": self.d,
            "local_memory": capacity_label(self.local_memory),
            "fth": self.fth,
        }
        if self.topology is not None:
            out["topology"] = self.topology
            out["cores"] = self.cores
            out["link_bw"] = self.link_bw
        if self.engine:
            out["engine"] = True
            out["epr_rate"] = self.epr_rate
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(
            benchmark=data["benchmark"],
            algorithm=data.get("algorithm", "lpfs"),
            k=data.get("k", 4),
            d=data.get("d"),
            local_memory=parse_capacity(data.get("local_memory")),
            fth=data.get("fth"),
            engine=bool(data.get("engine", False)),
            epr_rate=data.get("epr_rate"),
            topology=data.get("topology"),
            cores=data.get("cores", 1),
            link_bw=data.get("link_bw", 1.0),
        )


@dataclass(frozen=True)
class SweepGrid:
    """A cross-product sweep specification."""

    benchmarks: Tuple[str, ...]
    algorithms: Tuple[str, ...] = ("lpfs",)
    ks: Tuple[int, ...] = (4,)
    ds: Tuple[Optional[int], ...] = (None,)
    local_memories: Tuple[Optional[float], ...] = (None,)
    fth: Optional[int] = None
    engine: bool = False
    epr_rate: Optional[float] = None
    topologies: Tuple[Optional[str], ...] = (None,)
    cores: Tuple[int, ...] = (1,)
    link_bw: float = 1.0

    def __post_init__(self) -> None:
        unknown = [b for b in self.benchmarks if b not in BENCHMARKS]
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown} "
                f"(have {', '.join(benchmark_names())})"
            )
        bad = [
            a
            for a in self.algorithms
            if a not in ("sequential", "rcp", "lpfs")
        ]
        if bad:
            raise ValueError(f"unknown scheduler(s) {bad}")
        if not self.benchmarks:
            raise ValueError("grid selects no benchmarks")
        if any(k < 1 for k in self.ks):
            raise ValueError("k must be >= 1")
        if any(d is not None and d < 1 for d in self.ds):
            raise ValueError("d must be >= 1 or 'inf'")
        if self.epr_rate is not None and not self.epr_rate > 0:
            raise ValueError("epr_rate must be positive or 'inf'")
        from ..multicore.topology import TOPOLOGIES

        bad_topo = [
            t
            for t in self.topologies
            if t is not None and t not in TOPOLOGIES
        ]
        if bad_topo:
            raise ValueError(
                f"unknown topology(ies) {bad_topo} "
                f"(have {', '.join(TOPOLOGIES)})"
            )
        if any(c < 1 for c in self.cores):
            raise ValueError("cores must be >= 1")
        if not self.link_bw > 0:
            raise ValueError("link_bw must be positive")

    @classmethod
    def parse(
        cls,
        benchmarks: str = "all",
        schedulers: str = "lpfs",
        ks: str = "4",
        ds: str = "inf",
        local_memories: str = "none",
        fth: Optional[int] = None,
        engine: bool = False,
        epr_rate: Optional[str] = None,
        topologies: str = "none",
        cores: str = "1",
        link_bw: str = "1",
    ) -> "SweepGrid":
        """Build a grid from comma-separated CLI spellings.

        ``benchmarks`` is ``"all"`` or a comma-separated subset of the
        registry; ``ds`` entries are integers or ``"inf"``;
        ``local_memories`` entries follow
        :func:`~repro.arch.machine.parse_capacity`; ``epr_rate`` is a
        number or ``"inf"`` (only meaningful with ``engine=True``);
        ``topologies`` is ``"none"`` (single-core) or a comma-separated
        subset of :data:`repro.multicore.TOPOLOGIES` (``none`` mixes in
        as the single-core point); ``cores`` lists core counts (only
        meaningful with a topology); ``link_bw`` is one positive
        number shared by every multi-core job.

        Raises:
            ValueError: on any unknown or malformed entry.
        """
        keys = (
            tuple(benchmark_names())
            if benchmarks.strip() == "all"
            else tuple(b.strip() for b in benchmarks.split(",") if b.strip())
        )

        def _ints(text: str) -> Tuple[int, ...]:
            try:
                return tuple(int(v) for v in text.split(",") if v.strip())
            except ValueError:
                raise ValueError(f"bad integer list {text!r}") from None

        def _d(text: str) -> Optional[int]:
            if text.strip() in ("inf", "none"):
                return None
            try:
                return int(text)
            except ValueError:
                raise ValueError(f"bad d value {text!r}") from None

        rate: Optional[float] = None
        if epr_rate is not None and epr_rate.strip() not in ("", "inf"):
            try:
                rate = float(epr_rate)
            except ValueError:
                raise ValueError(
                    f"bad epr_rate {epr_rate!r} (number or 'inf')"
                ) from None
        topos = tuple(
            None if t.strip() == "none" else t.strip()
            for t in topologies.split(",")
            if t.strip()
        ) or (None,)
        try:
            bw = float(link_bw)
        except ValueError:
            raise ValueError(
                f"bad link_bw {link_bw!r} (positive number)"
            ) from None
        return cls(
            benchmarks=keys,
            algorithms=tuple(
                s.strip() for s in schedulers.split(",") if s.strip()
            ),
            ks=_ints(ks),
            ds=tuple(_d(v) for v in ds.split(",") if v.strip()),
            local_memories=tuple(
                parse_capacity(v.strip())
                for v in local_memories.split(",")
                if v.strip()
            ),
            fth=fth,
            engine=engine,
            epr_rate=rate,
            topologies=topos,
            cores=_ints(cores),
            link_bw=bw,
        )

    def expand(self) -> List[JobSpec]:
        """The grid's jobs in deterministic (document) order.

        The cores axis only multiplies multi-core points: a ``None``
        topology contributes exactly one single-core job per
        (benchmark, algorithm, k, d, local) point.
        """
        return [
            JobSpec(
                benchmark=b,
                algorithm=alg,
                k=k,
                d=d,
                local_memory=local,
                fth=self.fth,
                engine=self.engine,
                epr_rate=self.epr_rate,
                topology=topo,
                cores=n,
                link_bw=self.link_bw,
            )
            for b in self.benchmarks
            for alg in self.algorithms
            for k in self.ks
            for d in self.ds
            for local in self.local_memories
            for topo in self.topologies
            for n in (self.cores if topo is not None else (1,))
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmarks": list(self.benchmarks),
            "algorithms": list(self.algorithms),
            "ks": list(self.ks),
            "ds": [d if d is not None else "inf" for d in self.ds],
            "local_memories": [
                capacity_label(v) for v in self.local_memories
            ],
            "fth": self.fth,
            "engine": self.engine,
            "epr_rate": self.epr_rate,
            "topologies": [
                t if t is not None else "none" for t in self.topologies
            ],
            "cores": list(self.cores),
            "link_bw": self.link_bw,
        }


# -- the worker ---------------------------------------------------------

#: Per-process service instances, keyed by cache dir, so one worker
#: serves many jobs from a warm memory LRU.
_SERVICES: Dict[Optional[str], CompileService] = {}


def _service_for(cache_dir: Optional[str]) -> CompileService:
    service = _SERVICES.get(cache_dir)
    if service is None:
        service = CompileService(cache_dir=cache_dir)
        _SERVICES[cache_dir] = service
    return service


def _error_kind(exc: BaseException) -> str:
    from ..engine import PreflightError

    if isinstance(exc, AnalysisError):
        return "analysis"
    if isinstance(
        exc,
        (ScaffoldSyntaxError, QasmSyntaxError, ProgramValidationError),
    ):
        return "parse"
    if isinstance(exc, (ScheduleError, ReplayError, PreflightError)):
        return "schedule"
    return "error"


def execute_job(
    job: JobSpec,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> Dict[str, Any]:
    """Run one sweep job through the compile service.

    Returns a JSON-safe outcome dict; never raises (failures are
    encoded as ``status="error"`` with a classified kind, so one bad
    job cannot take down a sweep).
    """
    started = time.perf_counter()
    outcome: Dict[str, Any] = {
        "job": job.to_dict(),
        "label": job.label,
        "status": "ok",
        "cached": None,
        "fingerprint": None,
        "elapsed_s": 0.0,
        "compute_s": 0.0,
        "spans": {},
        "metrics": None,
        "error": None,
        "attempts": 1,
    }
    if job.topology is not None:
        return _execute_multicore_job(job, outcome, started)
    try:
        spec = BENCHMARKS[job.benchmark]
        machine = MultiSIMD(
            k=job.k, d=job.d, local_memory=job.local_memory
        )
        service = _service_for(cache_dir)
        entry = service.lookup(
            spec.build(),
            machine,
            SchedulerConfig(job.algorithm),
            fth=job.fth if job.fth is not None else spec.fth,
            use_cache=use_cache,
        )
    except Exception as exc:  # noqa: BLE001 - classified and reported
        outcome["status"] = "error"
        outcome["error"] = {
            "kind": _error_kind(exc),
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=10),
        }
        outcome["elapsed_s"] = time.perf_counter() - started
        return outcome

    result = entry.result
    outcome["cached"] = entry.cached
    outcome["fingerprint"] = entry.fingerprint
    outcome["compute_s"] = entry.elapsed_s
    outcome["spans"] = entry.spans
    outcome["metrics"] = {
        name: getattr(result, name) for name in _METRIC_FIELDS
    }
    outcome["metrics"]["diagnostics"] = len(result.diagnostics)
    if job.engine:
        try:
            outcome["metrics"].update(
                _engine_metrics(job, result, service, machine, spec)
            )
        except Exception as exc:  # noqa: BLE001 - classified, reported
            outcome["status"] = "error"
            outcome["error"] = {
                "kind": _error_kind(exc),
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=10),
            }
    outcome["elapsed_s"] = time.perf_counter() - started
    return outcome


def _execute_multicore_job(
    job: JobSpec, outcome: Dict[str, Any], started: float
) -> Dict[str, Any]:
    """The multi-core arm of :func:`execute_job` (schema ``/3``).

    Multi-core results carry live per-core schedules the artifact
    store cannot serialize, so these jobs bypass the compile cache and
    always compute fresh (``cached`` stays ``None``).
    """
    import math

    from ..instrument import record_spans
    from ..multicore import (
        MulticoreConfig,
        compile_and_schedule_multicore,
        execute_multicore_result,
        parse_topology,
    )

    try:
        spec = BENCHMARKS[job.benchmark]
        machine = MultiSIMD(
            k=job.k, d=job.d, local_memory=job.local_memory
        )
        graph = parse_topology(job.topology, job.cores, job.link_bw)
        rate = (
            job.epr_rate if job.epr_rate is not None else math.inf
        )
        config = MulticoreConfig(graph=graph, link_epr_rate=rate)
        with record_spans() as rec:
            result = compile_and_schedule_multicore(
                spec.build(),
                machine,
                config,
                SchedulerConfig(job.algorithm),
                fth=job.fth if job.fth is not None else spec.fth,
            )
            metrics = {
                name: getattr(result, name) for name in _METRIC_FIELDS
            }
            metrics["diagnostics"] = 0
            metrics.update(result.metrics())
            if job.engine:
                from ..engine import EngineConfig

                execution = execute_multicore_result(
                    result,
                    config=EngineConfig(
                        epr_rate=rate, collect_trace=False
                    ),
                )
                metrics.update(execution.metrics())
    except Exception as exc:  # noqa: BLE001 - classified and reported
        outcome["status"] = "error"
        outcome["error"] = {
            "kind": _error_kind(exc),
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=10),
        }
        outcome["elapsed_s"] = time.perf_counter() - started
        return outcome
    outcome["spans"] = rec.to_dict()
    outcome["metrics"] = metrics
    outcome["compute_s"] = time.perf_counter() - started
    outcome["elapsed_s"] = outcome["compute_s"]
    return outcome


def _engine_metrics(job, result, service, machine, spec):
    """Execute a job's compile result on the engine and return the
    ``engine_*`` metric columns.

    Disk-cached results come back with schedules rehydrated from the
    store's gzip sidecar, so a cache hit feeds the engine directly —
    no recompile, and the hit still counts in the cache stats. The
    recompile below is the fallback for results loaded from pre-sidecar
    stores (or a deleted/corrupt sidecar), where live schedules are
    genuinely absent.
    """
    import math

    from ..engine import EngineConfig, execute_result

    if not result.schedules:
        entry = service.lookup(
            spec.build(),
            machine,
            SchedulerConfig(job.algorithm),
            fth=job.fth if job.fth is not None else spec.fth,
            use_cache=False,
        )
        result = entry.result
    config = EngineConfig(
        epr_rate=job.epr_rate if job.epr_rate is not None else math.inf,
        collect_trace=False,
    )
    return execute_result(result, config).metrics()


def _timeout_outcome(job: JobSpec, timeout: float) -> Dict[str, Any]:
    return {
        "job": job.to_dict(),
        "label": job.label,
        "status": "timeout",
        "cached": None,
        "fingerprint": None,
        "elapsed_s": timeout,
        "compute_s": 0.0,
        "spans": {},
        "metrics": None,
        "error": {
            "kind": "timeout",
            "message": f"job exceeded {timeout:g}s",
        },
        "attempts": 1,
    }


# -- the runner ---------------------------------------------------------

Worker = Callable[..., Dict[str, Any]]


@dataclass
class SweepRun:
    """The collected outcomes of one sweep execution."""

    jobs: List[JobSpec]
    outcomes: List[Dict[str, Any]]
    parallel: bool
    workers: int
    degraded_to_serial: bool = False
    pool_restarts: int = 0
    wall_s: float = 0.0

    @property
    def ok(self) -> List[Dict[str, Any]]:
        return [o for o in self.outcomes if o["status"] == "ok"]

    @property
    def failed(self) -> List[Dict[str, Any]]:
        return [o for o in self.outcomes if o["status"] != "ok"]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.ok if o.get("cached"))

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / len(self.ok) if self.ok else 0.0


def run_sweep(
    jobs: Sequence[JobSpec],
    cache_dir: Optional[Union[str, Path]] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    use_cache: bool = True,
    worker: Worker = execute_job,
) -> SweepRun:
    """Execute ``jobs``, in parallel where possible.

    Args:
        jobs: grid points (see :meth:`SweepGrid.expand`).
        cache_dir: shared artifact store for all workers (``None``
            disables the disk tier — each worker still has a memory
            LRU).
        parallel: fan out over a process pool; serial in-process
            otherwise.
        max_workers: pool size (default: executor's CPU-count policy).
        timeout: per-job seconds; ``None`` waits indefinitely.
        use_cache: forwarded to :func:`execute_job`.
        worker: the job callable — injectable for fault-injection
            tests; must be picklable and return an outcome dict.
    """
    cache = str(cache_dir) if cache_dir is not None else None
    jobs = list(jobs)
    run = SweepRun(
        jobs=jobs,
        outcomes=[{} for _ in jobs],
        parallel=parallel,
        workers=max_workers or 0,
    )
    started = time.perf_counter()

    def _serial(pending: List[Tuple[int, JobSpec]], attempt: int) -> None:
        for i, job in pending:
            outcome = worker(job, cache, use_cache)
            outcome["attempts"] = attempt
            run.outcomes[i] = outcome

    if not parallel:
        _serial(list(enumerate(jobs)), attempt=1)
        run.wall_s = time.perf_counter() - started
        return run

    pending: List[Tuple[int, JobSpec]] = list(enumerate(jobs))
    attempt = 0
    # One initial attempt plus one retry after a pool break.
    while pending and attempt < 2:
        attempt += 1
        crashed: List[Tuple[int, JobSpec]] = []
        executor = ProcessPoolExecutor(max_workers=max_workers)
        try:
            futures = {}
            try:
                for i, job in pending:
                    futures[i] = executor.submit(
                        worker, job, cache, use_cache
                    )
            except BrokenProcessPool:
                pass  # unsubmitted jobs fall through to the retry list
            for i, job in pending:
                if i not in futures:
                    crashed.append((i, job))
                    continue
                try:
                    outcome = futures[i].result(timeout=timeout)
                    outcome["attempts"] = attempt
                    run.outcomes[i] = outcome
                except FutureTimeout:
                    futures[i].cancel()
                    run.outcomes[i] = _timeout_outcome(job, timeout or 0.0)
                    run.outcomes[i]["attempts"] = attempt
                except BrokenProcessPool:
                    crashed.append((i, job))
                except Exception as exc:  # unpicklable result, etc.
                    run.outcomes[i] = {
                        **_timeout_outcome(job, 0.0),
                        "status": "error",
                        "error": {
                            "kind": "worker",
                            "message": f"{type(exc).__name__}: {exc}",
                        },
                        "attempts": attempt,
                    }
        finally:
            # Never block on a hung worker: abandon what cannot be
            # cancelled instead of wedging the sweep.
            executor.shutdown(wait=False, cancel_futures=True)
        if crashed:
            run.pool_restarts += 1
        pending = crashed

    if pending:
        # The pool broke twice: degrade gracefully to serial mode.
        run.degraded_to_serial = True
        _serial(pending, attempt=attempt + 1)

    run.wall_s = time.perf_counter() - started
    return run


# -- the report ---------------------------------------------------------


def build_sweep_payload(
    run: SweepRun,
    grid: Optional[SweepGrid] = None,
    cache_stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned ``BENCH_sweep.json`` document."""
    return {
        "schema": SWEEP_SCHEMA,
        "pipeline_version": PIPELINE_VERSION,
        "created_unix": time.time(),
        "grid": grid.to_dict() if grid is not None else None,
        "execution": {
            "parallel": run.parallel,
            "workers": run.workers,
            "degraded_to_serial": run.degraded_to_serial,
            "pool_restarts": run.pool_restarts,
            "wall_s": run.wall_s,
        },
        "cache": {
            "jobs_total": len(run.outcomes),
            "jobs_ok": len(run.ok),
            "jobs_failed": len(run.failed),
            "hits": run.cache_hits,
            "hit_rate": run.hit_rate,
            **({"service": cache_stats} if cache_stats else {}),
        },
        "jobs": run.outcomes,
    }


def validate_sweep_payload(payload: Dict[str, Any]) -> List[str]:
    """Structural check of a ``BENCH_sweep.json`` document.

    Returns a list of problems (empty when valid). Hand-rolled rather
    than a jsonschema dependency; the schema itself is documented in
    ``DESIGN.md``.
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

    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") not in ACCEPTED_SCHEMAS:
        problems.append(
            f"schema: expected one of {ACCEPTED_SCHEMAS}, got "
            f"{payload.get('schema')!r}"
        )
    need(payload, "pipeline_version", str, "$")
    need(payload, "created_unix", (int, float), "$")
    need(payload, "execution", dict, "$")
    cache = need(payload, "cache", dict, "$")
    if cache is not None:
        for key in ("jobs_total", "jobs_ok", "jobs_failed", "hits"):
            need(cache, key, int, "cache")
        need(cache, "hit_rate", (int, float), "cache")
    jobs = need(payload, "jobs", list, "$")
    for idx, outcome in enumerate(jobs or []):
        where = f"jobs[{idx}]"
        if not isinstance(outcome, dict):
            problems.append(f"{where}: not an object")
            continue
        job = need(outcome, "job", dict, where)
        if job is not None:
            need(job, "benchmark", str, f"{where}.job")
            need(job, "algorithm", str, f"{where}.job")
            need(job, "k", int, f"{where}.job")
        status = need(outcome, "status", str, where)
        if status not in (None, "ok", "timeout", "error"):
            problems.append(f"{where}.status: unknown value {status!r}")
        need(outcome, "elapsed_s", (int, float), where)
        need(outcome, "spans", dict, where)
        if status == "ok":
            metrics = need(outcome, "metrics", dict, where)
            for name in _METRIC_FIELDS:
                if metrics is not None:
                    need(metrics, name, (int, float), f"{where}.metrics")
            if (
                metrics is not None
                and job is not None
                and job.get("engine")
            ):
                for name in _ENGINE_METRIC_FIELDS:
                    need(metrics, name, (int, float), f"{where}.metrics")
            if (
                metrics is not None
                and job is not None
                and job.get("topology") is not None
            ):
                need(job, "cores", int, f"{where}.job")
                need(job, "link_bw", (int, float), f"{where}.job")
                for name in _MULTICORE_METRIC_FIELDS:
                    need(metrics, name, (int, float), f"{where}.metrics")
            if outcome.get("cached") not in (None, "memory", "disk"):
                problems.append(
                    f"{where}.cached: unknown value "
                    f"{outcome.get('cached')!r}"
                )
        elif status in ("timeout", "error"):
            need(outcome, "error", dict, where)
    return problems
