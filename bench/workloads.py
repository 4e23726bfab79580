"""The benchmark's four workloads.

Each workload builds its inputs from a seed, then runs a fixed job list
per pass through the library's public API only — no sweep runner, no
compile cache, no pipeline switches — so the benchmark keeps measuring
the same work while the code behind those entry points changes. Every
job returns its outputs: the *pinned* ones are compared with
``bench/expected.json``, the rest must repeat exactly from pass to
pass, and any invariant the job can check on the spot (realized =
analytic + stalls, a verdict equal to its known answer) is checked
there.

Why these four (see ``bench/README.md`` for the full table):

* ``registry`` — the Figs 6-9 grid: many small leaves at every
  candidate width plus coarse scheduling of hierarchies; the passes,
  dependence DAGs and the materialized schedulers do the work.
* ``stream`` — one huge leaf at one width through the columnar path;
  no flatten, coarse or DAG objects, and peak memory per gate matters.
* ``execute`` — the engine, schedule-stream I/O and the multi-core
  stack, which no other workload touches.
* ``verify`` — time to a verdict; the reversible simulator does the
  work.

The seed shuffles the job order of ``registry`` and ``stream``, draws
the faults of ``execute`` and picks the corrupted CNOT and the sampled
inputs of ``verify``. No seed changes a pinned output.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro import (
    MultiSIMD,
    Operation,
    SchedulerConfig,
    compile_and_schedule,
    replay_schedule,
)
from repro.benchmarks import BENCHMARKS, benchmark_names, build_scale
from repro.core.opstream import GeneratorStream
from repro.engine import EngineConfig, FaultConfig, execute_result
from repro.multicore import (
    MulticoreConfig,
    compile_and_schedule_multicore,
    execute_multicore_result,
    parse_topology,
)
from repro.passes.stream import leaf_stream
from repro.sched.stream import build_columns, schedule_columns
from repro.service.stream_io import (
    execute_schedule_stream,
    validate_schedule_stream,
    write_schedule_stream,
)
from repro.sim import bind_spec, verify_equivalent, verify_reference
from repro.sim.reversible import compile_ops, streamed_schedule_ops
from repro.sim.specs import build_kernel_program
from repro.toolflow import compile_and_schedule_streamed

__all__ = ["FULL", "SMOKE", "Size", "WORKLOADS", "JobResult", "Job"]

#: The machine every workload targets: Multi-SIMD(4,4) with a 4-qubit
#: scratchpad per region, the perf grid's configuration.
MACHINE = MultiSIMD(k=4, d=4, local_memory=4)

#: Ingestion window of the columnar path (the library default).
WINDOW = 65536


@dataclass(frozen=True)
class Size:
    """Input sizes. ``FULL`` is the benchmark; ``SMOKE`` runs the same
    code on small inputs for the self-tests."""

    name: str
    registry: Tuple[str, ...]
    stream_gates: int
    io_gates: int
    multicore: Tuple[str, ...]
    kernels: Tuple[Tuple[str, int], ...]
    verify_scale_gates: int
    setup_launches: int


FULL = Size(
    name="full",
    registry=tuple(benchmark_names()),
    stream_gates=100_000,
    io_gates=30_000,
    # SHA-1's leaves need more than 4 cores x 16 qubits.
    multicore=tuple(k for k in benchmark_names() if k != "SHA-1"),
    kernels=(("adder", 8), ("compare", 8), ("multiply", 3)),
    verify_scale_gates=300_000,
    setup_launches=7,
)

SMOKE = Size(
    name="smoke",
    registry=("BF", "Grovers"),
    stream_gates=2_000,
    io_gates=2_000,
    multicore=("BF", "Grovers"),
    kernels=(("adder", 4), ("compare", 4), ("multiply", 2)),
    verify_scale_gates=10_000,
    setup_launches=1,
)


@dataclass
class JobResult:
    """One job's outputs.

    ``pinned`` is compared with ``expected.json``; ``varying`` depends
    on the seed (fault draws, the corrupted op) and must only repeat
    across passes; ``problems`` are invariants the job found broken;
    ``live`` goes to :meth:`Workload.check` once, untimed, and is then
    dropped.
    """

    pinned: Dict[str, Any]
    ops: int
    varying: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    live: Any = None


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], JobResult]


class Workload:
    """Inputs, job list and checks of one workload."""

    name = ""

    def __init__(self, seed: int, size: Size, work_dir: str):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.rng = random.Random(seed)

    def warmup(self) -> None:
        """One job on the smallest input, so lazy set-up is done."""

    def fixture(self) -> None:
        """Untimed preparation the timed jobs consume."""

    def jobs(self) -> List[Job]:
        raise NotImplementedError

    def check(self, live: Any) -> List[str]:
        """Checks too slow for every pass, on a job's first ``live``
        output, right after the job and outside its timing."""
        return []

    def final_checks(self) -> List[Tuple[str, str]]:
        """Checks after the timed passes: ``(job, problem)`` pairs."""
        return []

    def close(self) -> None:
        """Remove files the workload wrote."""


def _compile_outputs(result) -> Dict[str, Any]:
    return {
        "schedule_length": result.schedule_length,
        "runtime": result.runtime,
        "critical_path": result.critical_path,
        "total_gates": result.total_gates,
    }


class Registry(Workload):
    """Materialized compile of the registry x {rcp, lpfs}, uncached."""

    name = "registry"

    def __init__(self, seed: int, size: Size, work_dir: str):
        super().__init__(seed, size, work_dir)
        self.programs = {key: BENCHMARKS[key].build() for key in size.registry}
        self.order = [
            (key, alg) for key in size.registry for alg in ("rcp", "lpfs")
        ]
        self.rng.shuffle(self.order)

    def warmup(self) -> None:
        self._compile(self.size.registry[0], "lpfs")

    def jobs(self) -> List[Job]:
        return [
            Job(f"{key}/{alg}", lambda key=key, alg=alg: self._compile(key, alg))
            for key, alg in self.order
        ]

    def _compile(self, key: str, alg: str) -> JobResult:
        result = compile_and_schedule(
            self.programs[key],
            MACHINE,
            SchedulerConfig(alg),
            fth=BENCHMARKS[key].fth,
        )
        # Work fed to the fine schedulers: each leaf at every width.
        ops = sum(
            len(result.program.module(name).body) * len(profile.length)
            for name, profile in result.profiles.items()
            if profile.is_leaf
        )
        pinned = _compile_outputs(result)
        pinned["ops"] = ops
        return JobResult(pinned=pinned, ops=ops, live=result)

    def check(self, live: Any) -> List[str]:
        """Every schedule of the compile replays at its derived runtime."""
        k = live.machine.k
        problems = []
        for module, sched in live.schedules.items():
            report = replay_schedule(sched, live.machine)
            want = live.profiles[module].comm[k].runtime
            if report.runtime != want:
                problems.append(
                    f"{module}: replayed runtime {report.runtime} != "
                    f"derived {want}"
                )
        return problems


class Stream(Workload):
    """Streamed compile of one scale leaf per kind at one width."""

    name = "stream"
    kinds = ("adder", "rotations")

    def __init__(self, seed: int, size: Size, work_dir: str):
        super().__init__(seed, size, work_dir)
        self.programs = {
            kind: build_scale(kind, size.stream_gates) for kind in self.kinds
        }
        self.order = list(self.kinds)
        self.rng.shuffle(self.order)

    def warmup(self) -> None:
        self._compile(build_scale("adder", 1_000))

    def jobs(self) -> List[Job]:
        return [
            Job(f"scale:{kind}/lpfs",
                lambda kind=kind: self._compile(self.programs[kind]))
            for kind in self.order
        ]

    def _compile(self, built) -> JobResult:
        program, total = built
        result = compile_and_schedule_streamed(
            program,
            MACHINE,
            SchedulerConfig("lpfs"),
            fth=total + 1,  # the whole entry is one leaf
            window=WINDOW,
            widths="entry",
        )
        ops = sum(s.op_count for s in result.stream_schedules.values())
        pinned = _compile_outputs(result)
        pinned["ops"] = ops
        return JobResult(pinned=pinned, ops=ops)


class Execute(Workload):
    """Engine runs of compiled results, schedule-stream I/O, and the
    multi-core compile + execute."""

    name = "execute"

    def __init__(self, seed: int, size: Size, work_dir: str):
        super().__init__(seed, size, work_dir)
        self.programs = {key: BENCHMARKS[key].build() for key in size.registry}
        self.scale = build_scale("adder", size.io_gates)
        self.graph = parse_topology("mesh", 4)
        self.configs = {
            "ideal": EngineConfig(collect_trace=False),
            "epr0.1": EngineConfig(epr_rate=0.1, collect_trace=False),
            "faults": EngineConfig(
                epr_rate=0.5,
                faults=FaultConfig(
                    epr_failure_prob=0.05, region_failure_prob=0.01
                ),
                seed=seed,
                collect_trace=False,
            ),
        }
        self.export = os.path.join(work_dir, f"execute-{os.getpid()}.jsonl")
        self.io_job = f"stream-io/scale:adder@{size.io_gates}"
        self.results: Dict[str, Any] = {}
        self.streamed = None

    def warmup(self) -> None:
        key = self.size.registry[0]
        result = compile_and_schedule(
            self.programs[key], MACHINE, SchedulerConfig("lpfs"),
            fth=BENCHMARKS[key].fth,
        )
        execute_result(result, self.configs["ideal"])

    def fixture(self) -> None:
        for key, program in self.programs.items():
            self.results[key] = compile_and_schedule(
                program, MACHINE, SchedulerConfig("lpfs"),
                fth=BENCHMARKS[key].fth,
            )
        program, total = self.scale
        self.streamed = compile_and_schedule_streamed(
            program, MACHINE, SchedulerConfig("lpfs"), fth=total + 1,
            window=WINDOW, widths="entry",
        )
        os.makedirs(self.work_dir, exist_ok=True)

    def jobs(self) -> List[Job]:
        jobs = [
            Job(f"engine/{cfg}/{key}",
                lambda cfg=cfg, key=key: self._engine(cfg, key))
            for cfg in self.configs
            for key in self.size.registry
        ]
        jobs.append(Job(self.io_job, self._stream_io))
        jobs.extend(
            Job(f"multicore/{key}", lambda key=key: self._multicore(key))
            for key in self.size.multicore
        )
        return jobs

    def _engine(self, cfg: str, key: str) -> JobResult:
        run = execute_result(self.results[key], self.configs[cfg])
        problems = [
            f"{name}: realized {leaf.realized_runtime} != analytic "
            f"{leaf.analytic_runtime} + stalls {leaf.stalls.total}"
            for name, leaf in run.leaves.items()
            if leaf.realized_runtime
            != leaf.analytic_runtime + leaf.stalls.total
        ]
        if cfg == "ideal" and not run.ideal_match:
            problems.append(
                f"ideal realized {run.realized_runtime} != analytic "
                f"{run.analytic_runtime}"
            )
        ops = sum(leaf.ops_executed for leaf in run.leaves.values())
        pinned = {"analytic": run.analytic_runtime, "ops": ops}
        outcome = {
            "realized": run.realized_runtime,
            "stalls": run.stalls.total,
            "faults": run.fault_log.total_events,
        }
        if cfg == "faults":  # fault draws follow the seed
            return JobResult(pinned, ops, varying=outcome, problems=problems)
        pinned.update(outcome)
        return JobResult(pinned, ops, problems=problems)

    def _stream_io(self) -> JobResult:
        result = self.streamed
        name = result.program.entry
        written = write_schedule_stream(
            self.export,
            result.columns[name],
            result.stream_schedules[name],
            MACHINE,
            module=name,
        )
        _header, run, footer = execute_schedule_stream(
            self.export, MACHINE, self.configs["ideal"]
        )
        problems = []
        if written.runtime != result.leaf_comm[name].runtime:
            problems.append(
                f"exported runtime {written.runtime} != compiled "
                f"{result.leaf_comm[name].runtime}"
            )
        if run.realized_runtime != footer.runtime:
            problems.append(
                f"ideal realized {run.realized_runtime} != analytic "
                f"{footer.runtime}"
            )
        if run.realized_runtime != run.analytic_runtime + run.stalls.total:
            problems.append("realized != analytic + stalls")
        pinned = {
            "runtime": written.runtime,
            "realized": run.realized_runtime,
            "ops": run.ops_executed,
        }
        return JobResult(pinned, run.ops_executed, problems=problems)

    def _multicore(self, key: str) -> JobResult:
        result = compile_and_schedule_multicore(
            self.programs[key],
            MACHINE,
            MulticoreConfig(graph=self.graph),
            SchedulerConfig("lpfs"),
            fth=BENCHMARKS[key].fth,
        )
        run = execute_multicore_result(result, self.configs["ideal"])
        problems = []
        for name, leaf in run.leaves.items():
            # The engine replays each core independently of the
            # compiler's movement accounting.
            msched = result.leaf_schedules[name]
            if leaf.intra_analytic + leaf.intercore_cycles != msched.makespan:
                problems.append(
                    f"{name}: makespan {msched.makespan} != intra "
                    f"{leaf.intra_analytic} + inter {leaf.intercore_cycles}"
                )
        if not run.decomposition_ok:
            problems.append("realized != analytic + stalls")
        if not run.ideal_match:
            problems.append(
                f"ideal realized {run.realized_runtime} != analytic "
                f"{run.analytic_runtime}"
            )
        ops = sum(
            core.ops_executed
            for leaf in run.leaves.values()
            for core in leaf.core_results.values()
        )
        pinned = {
            "makespan": result.makespan,
            "intercore_cycles": result.intercore_cycles,
            "realized": run.realized_runtime,
            "ops": ops,
        }
        return JobResult(pinned, ops, problems=problems)

    def final_checks(self) -> List[Tuple[str, str]]:
        job = self.io_job
        try:
            summary = validate_schedule_stream(self.export)
        except (OSError, ValueError) as exc:
            return [(job, f"export does not validate: {exc}")]
        name = self.streamed.program.entry
        sched = self.streamed.stream_schedules[name]
        problems = []
        if summary["op_count"] != sched.op_count:
            problems.append((job, f"export holds {summary['op_count']} ops"))
        if summary["runtime"] != self.streamed.leaf_comm[name].runtime:
            problems.append((job, f"export runtime {summary['runtime']}"))
        return problems

    def close(self) -> None:
        if os.path.exists(self.export):
            os.remove(self.export)


class Verify(Workload):
    """Spec checks and schedule replays through the reversible
    simulator, plus one schedule with a seed-chosen CNOT corrupted."""

    name = "verify"

    def __init__(self, seed: int, size: Size, work_dir: str):
        super().__init__(seed, size, work_dir)
        self.programs = {
            f"{kind}{width}": (kind, build_kernel_program(kind, width))
            for kind, width in size.kernels
        }
        self.programs["scale:adder"] = (
            "adder", build_scale("adder", size.verify_scale_gates)[0]
        )
        self.corrupt_label = next(
            label for label, (kind, _) in self.programs.items()
            if kind == "adder"
        )
        self.corrupt_draw = self.rng.randrange(1 << 30)

    def warmup(self) -> None:
        self._spec("adder", build_kernel_program("adder", 2))

    def jobs(self) -> List[Job]:
        jobs = [
            Job(f"{label}/{check}",
                lambda run=run, label=label: run(*self.programs[label]))
            for label in self.programs
            for check, run in (("spec", self._spec), ("replay", self._replay))
        ]
        label = self.corrupt_label
        jobs.append(
            Job(f"{label}/corrupt",
                lambda: self._corrupt(*self.programs[label]))
        )
        return jobs

    def _spec(self, kind: str, program) -> JobResult:
        binding = bind_spec(kind, program)
        index = {q: i for i, q in enumerate(binding.qubits)}
        instrs = compile_ops(
            leaf_stream(program, binding.module, decompose=False), index
        )

        def run_kernel(state) -> int:
            for _ in range(binding.iterations):
                state.apply_compiled(instrs)
            return len(instrs) * binding.iterations

        report = verify_reference(
            run_kernel,
            binding.qubits,
            binding.inputs,
            binding.outputs,
            binding.reference,
            clean=binding.clean,
            seed=self.seed,
        )
        return _verdict(report, sides=1, want_ok=True)

    def _schedule(self, kind: str, program):
        binding = bind_spec(kind, program)
        kernel = list(leaf_stream(program, binding.module, decompose=False))
        iterations = binding.iterations
        stream = GeneratorStream(
            lambda: (op for _ in range(iterations) for op in kernel),
            length_hint=len(kernel) * iterations,
        )
        cols = build_columns(stream, window=WINDOW)
        ssched = schedule_columns(cols, "lpfs", MACHINE.k, MACHINE.d)
        return stream, cols, ssched

    def _replay(self, kind: str, program) -> JobResult:
        stream, cols, ssched = self._schedule(kind, program)
        report = verify_equivalent(
            iter(stream),
            streamed_schedule_ops(cols, ssched),
            cols.qubits,
            seed=self.seed,
        )
        return _verdict(report, sides=2, want_ok=True)

    def _corrupt(self, kind: str, program) -> JobResult:
        stream, cols, ssched = self._schedule(kind, program)
        replay = list(streamed_schedule_ops(cols, ssched))
        cnots = [i for i, op in enumerate(replay) if op.gate == "CNOT"]
        at = cnots[self.corrupt_draw % len(cnots)]
        control, target = replay[at].qubits
        replay[at] = Operation("CNOT", (target, control))
        report = verify_equivalent(
            iter(stream), iter(replay), cols.qubits, seed=self.seed
        )
        result = _verdict(report, sides=2, want_ok=False)
        result.varying = {
            "swapped_op": at,
            "counterexample": (
                report.counterexample.input_value
                if report.counterexample is not None
                else None
            ),
        }
        if report.counterexample is None:
            result.problems.append("MISMATCH without a counterexample")
        return result


def _verdict(report, sides: int, want_ok: bool) -> JobResult:
    """Check a verdict against its known answer. Work is counted as
    gate applications simulated: every op on every input lane, on each
    side of an equivalence check."""
    verdict = "OK" if report.ok else "MISMATCH"
    ops = sides * report.ops * report.lanes
    problems = []
    if report.ok != want_ok:
        problems.append(
            f"verdict {verdict}, known answer "
            f"{'OK' if want_ok else 'MISMATCH'}: {report.summary()}"
        )
    pinned = {
        "verdict": verdict,
        "mode": report.mode,
        "lanes": report.lanes,
        "ops": ops,
    }
    return JobResult(pinned, ops, problems=problems)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Registry, Stream, Execute, Verify)
}
