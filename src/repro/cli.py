"""Command-line interface for the toolflow.

Usage (also available as ``python -m repro``)::

    python -m repro list
    python -m repro estimate GSE
    python -m repro compile GSE -k 4 --scheduler lpfs --local-mem inf
    python -m repro compile program.qasm -k 2 --timeline
    python -m repro emit Grovers -o grovers.qasm
    python -m repro lint Grovers
    python -m repro lint program.scd --format json
    python -m repro lint all --fail-on warning
    python -m repro lint all --deep --format json
    python -m repro lint program.scd --deep --fail-on QL4
    python -m repro lint BF --deep --topology mesh --cores 4
    python -m repro perf --repeats 2 -o BENCH_perf.json
    python -m repro perf --baseline BENCH_perf.json -o ''
    python -m repro perf --scale-gates 1000000 --repeats 1
    python -m repro compile BF --stream --window 1024
    python -m repro compile scale:adder:1e7 --stream --entry-width-only
    python -m repro compile BF --stream --export-stream bf.jsonl.gz
    python -m repro execute --stream bf.jsonl.gz -k 4 --epr-rate 0.5
    python -m repro execute Grovers -k 4 --epr-rate 0.5 --trace g.trace
    python -m repro execute BF --fault-epr 0.1 --seed 7 --json
    python -m repro execute BF --topology line --cores 4 --link-bw 2
    python -m repro partition GSE --topology mesh --cores 4 -d 16

Exit codes form a stable contract (tested in ``tests/test_cli.py``):

* ``0`` — success;
* ``1`` — lint findings at or above the ``--fail-on`` threshold, a
  strict-mode analysis failure, a ``verify`` mismatch, or a failed or
  regressed ``perf`` job;
* ``2`` — usage / input errors (unknown benchmark, unreadable file,
  bad option values);
* ``3`` — parse or program-validation errors in a source file;
* ``4`` — schedule or replay invariant violations (including engine
  preflight refusals).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import (
    AnalysisError,
    DiagnosticSet,
    Severity,
    analyze_program,
    lint_qasm_source,
    lint_scaffold_source,
)
from .arch.machine import MultiSIMD, parse_capacity
from .benchmarks import BENCHMARKS, benchmark_names
from .core.module import Program, ProgramValidationError
from .core.qubits import Qubit
from .core.qasm import QasmSyntaxError, emit_qasm, parse_qasm
from .core.scaffold import ScaffoldSyntaxError, parse_scaffold
from .passes.qubit_count import minimum_qubits
from .passes.resource import estimate_resources, gate_count_histogram
from .sched.replay import ReplayError
from .sched.report import (
    compile_result_to_dict,
    profile_table,
    render_timeline,
)
from .sched.types import ScheduleError
from .toolflow import SchedulerConfig, compile_and_schedule

__all__ = ["main", "CLIError"]

#: Exit code for lint findings / strict-analysis failures.
EXIT_LINT = 1
#: Exit code for usage and input errors.
EXIT_USAGE = 2
#: Exit code for parse / validation errors.
EXIT_PARSE = 3
#: Exit code for schedule / replay invariant violations.
EXIT_SCHEDULE = 4


class CLIError(Exception):
    """A usage or input error (unknown source, bad option value)."""

    exit_code = EXIT_USAGE


def _is_scaffold_path(source: str) -> bool:
    return source.endswith((".scaffold", ".scd"))


#: Default gate count for ``scale:`` sources without an explicit size.
_SCALE_DEFAULT_GATES = 1_000_000


def _parse_scale_source(
    source: str,
) -> Optional[Tuple[str, int, Dict[str, int]]]:
    """Decode a ``scale:<kind>[:<gates>][:wN|:qN]`` synthetic source.

    Returns ``(kind, target_gates, params)``, or ``None`` when
    ``source`` is not a scale spec at all. The gate count accepts
    scientific notation (``scale:adder:1e7``); the optional trailing
    segment overrides the generator's shape parameter — ``w8`` sets the
    adder width, ``q12`` the rotations qubit count — so verification
    runs can pin an exhaustively-checkable register size
    (``scale:adder:1e5:w8``).
    """
    if not source.startswith("scale:"):
        return None
    from .benchmarks import SCALE_KINDS

    kind, _, rest = source[len("scale:"):].partition(":")
    if kind not in SCALE_KINDS:
        raise CLIError(
            f"unknown scale kind {kind!r} "
            f"(choose from {', '.join(SCALE_KINDS)})"
        )
    gates_text, _, param_text = rest.partition(":")
    params: Dict[str, int] = {}
    if param_text:
        names = {"w": "width", "q": "qubits"}
        name = names.get(param_text[:1])
        try:
            value = int(param_text[1:])
        except ValueError:
            value = 0
        if name is None or value < 1:
            raise CLIError(
                f"invalid scale parameter {param_text!r} in {source!r} "
                "(expected wN for adder width or qN for rotations "
                "qubits)"
            )
        expected = {"adder": "width", "rotations": "qubits"}.get(kind)
        if name != expected:
            raise CLIError(
                f"scale parameter {param_text!r} does not apply to "
                f"{kind!r} (its shape parameter is {expected})"
            )
        params[name] = value
    gates = _SCALE_DEFAULT_GATES
    if gates_text:
        try:
            gates = int(float(gates_text))
        except ValueError:
            raise CLIError(
                f"invalid gate count {gates_text!r} in {source!r}"
            ) from None
        if gates < 1:
            raise CLIError("scale gate count must be >= 1")
    return kind, gates, params


def _default_fth(source: str) -> int:
    """Per-source flattening-threshold default: the benchmark's pinned
    value, everything for synthetic scale sources (their whole point is
    one huge leaf), 4096 otherwise."""
    if source in BENCHMARKS:
        return BENCHMARKS[source].fth
    if source.startswith("scale:"):
        return sys.maxsize
    return 4096


def _fth_text(fth: int) -> str:
    return "all" if fth >= sys.maxsize else f"{fth:,}"


def _load_program(source: str) -> Program:
    """A benchmark key, a ``scale:<kind>[:<gates>]`` synthetic spec, or
    a path to a QASM / Scaffold source file (``.scaffold``/``.scd``
    parse as Scaffold, anything else as QASM)."""
    if source in BENCHMARKS:
        return BENCHMARKS[source].build()
    scale = _parse_scale_source(source)
    if scale is not None:
        from .benchmarks import build_scale

        kind, gates, params = scale
        return build_scale(kind, gates, **params)[0]
    try:
        with open(source) as fh:
            text = fh.read()
    except (FileNotFoundError, IsADirectoryError):
        raise CLIError(
            f"{source!r} is neither a benchmark "
            f"({', '.join(benchmark_names())}) nor a readable file"
        )
    if _is_scaffold_path(source):
        return parse_scaffold(text, filename=source)
    return parse_qasm(text)


def _parse_capacity(text: Optional[str]) -> Optional[float]:
    try:
        return parse_capacity(text)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _machine(args: argparse.Namespace) -> MultiSIMD:
    """The verb's Multi-SIMD machine from ``-k``/``-d`` (and
    ``--local-mem`` where the verb has it); a bad value is a usage
    error, raised before the verb does any work."""
    try:
        return MultiSIMD(
            k=args.k,
            d=args.d,
            local_memory=_parse_capacity(getattr(args, "local_mem", None)),
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'key':<8} {'paper instance':<22} description")
    print("-" * 72)
    for key in benchmark_names():
        spec = BENCHMARKS[key]
        print(f"{key:<8} {spec.title:<22} {spec.description}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    prog = _load_program(args.source)
    est = estimate_resources(prog)
    q = minimum_qubits(prog)
    print(f"modules:        {len(est.module_totals)}")
    print(f"total gates:    {est.total_gates:,}")
    print(f"minimum qubits: {q}")
    print("gate mix:")
    for gate, count in sorted(
        est.gate_mix.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {gate:<8} {count:,}")
    print("module gate-count histogram (% of modules):")
    for label, pct in gate_count_histogram(prog).items():
        if pct:
            print(f"  {label:<12} {pct:5.1f}%")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    machine = _machine(args)
    if args.timeline is not None and args.timeline < 0:
        raise CLIError(f"--timeline must be >= 0, got {args.timeline}")
    prog = _load_program(args.source)
    fth = args.fth
    if fth is None:
        fth = _default_fth(args.source)
    if args.stream or args.window is not None or args.export_stream:
        return _compile_streamed(args, prog, machine, fth)
    result = compile_and_schedule(
        prog,
        machine,
        SchedulerConfig(args.scheduler),
        fth=fth,
        decompose=not args.no_decompose,
        optimize=args.optimize,
        strict=args.strict,
    )
    if args.json:
        print(json.dumps(compile_result_to_dict(result), indent=2))
        return 0
    print(f"machine:            {machine}")
    print(f"scheduler:          {args.scheduler} (FTh={_fth_text(fth)})")
    print(f"total gates:        {result.total_gates:,}")
    print(f"critical path:      {result.critical_path:,} cycles")
    print(f"schedule length:    {result.schedule_length:,} cycles")
    print(f"comm-aware runtime: {result.runtime:,} cycles")
    print(f"parallel speedup:   {result.parallel_speedup:.2f}x")
    print(f"comm-aware speedup: {result.comm_aware_speedup:.2f}x "
          f"(vs naive {result.naive_runtime:,})")
    print(f"modules flattened:  {result.flattened_percent:.0f}%")
    if args.strict and result.diagnostics:
        print(f"strict diagnostics: {len(result.diagnostics)} "
              "(warnings/info only)")
    if args.profile:
        print("\nblackbox dimensions (comm-aware runtime):")
        print(profile_table(result, metric="runtime"))
    if args.timeline:
        entry = result.program.entry
        sched = result.schedules.get(entry)
        if sched is None:
            leaves = [
                n for n, p in result.profiles.items() if p.is_leaf
            ]
            print(
                f"\n(entry {entry!r} is hierarchical; showing leaf "
                f"{leaves[0]!r})"
            )
            sched = result.schedules[leaves[0]]
        print()
        print(render_timeline(sched, max_timesteps=args.timeline))
    return 0


def _compile_streamed(
    args: argparse.Namespace, prog: Program, machine: MultiSIMD, fth: int
) -> int:
    """The ``compile --stream`` path: bounded-memory columnar pipeline.

    Metric output matches the materialized path bit-for-bit (that is
    the streaming pipeline's contract); ``--export-stream`` addition-
    ally writes the entry leaf's schedule as a ``repro.schedule-stream``
    JSONL file without ever materializing it.
    """
    from .toolflow import compile_and_schedule_streamed

    if args.strict:
        raise CLIError(
            "--strict is not supported with --stream (the analyzer "
            "needs materialized leaf bodies)"
        )
    if args.entry_width_only and args.json:
        raise CLIError(
            "--entry-width-only is incompatible with --json (the JSON "
            "export reports all-width speedups)"
        )
    kwargs = {}
    if args.window is not None:
        if args.window < 0:
            raise CLIError(f"--window must be >= 0, got {args.window}")
        kwargs["window"] = args.window or None
    widths = "entry" if args.entry_width_only else "all"
    result = compile_and_schedule_streamed(
        prog,
        machine,
        SchedulerConfig(args.scheduler),
        fth=fth,
        decompose=not args.no_decompose,
        optimize=args.optimize,
        widths=widths,
        **kwargs,
    )
    exported = None
    if args.export_stream:
        from .service import write_schedule_stream

        entry = result.program.entry
        name = entry if entry in result.stream_schedules else None
        if name is None:
            leaves = sorted(result.stream_schedules)
            if not leaves:
                raise CLIError(
                    "nothing to export: no leaf schedules were "
                    "retained (is the program all-coarse at this "
                    "--fth?)"
                )
            name = leaves[0]
        write_schedule_stream(
            args.export_stream,
            result.columns[name],
            result.stream_schedules[name],
            machine,
            module=name,
        )
        exported = name
    if args.json:
        doc = compile_result_to_dict(result)
        doc["pipeline"] = "streamed"
        doc["window"] = result.window
        print(json.dumps(doc, indent=2))
        return 0
    window_text = (
        "unbounded" if result.window is None else f"{result.window:,}"
    )
    print(f"machine:            {machine}")
    print(f"scheduler:          {args.scheduler} (FTh={_fth_text(fth)})")
    print(f"pipeline:           streamed (window={window_text} ops, "
          f"widths={widths})")
    print(f"total gates:        {result.total_gates:,}")
    print(f"critical path:      {result.critical_path:,} cycles")
    print(f"schedule length:    {result.schedule_length:,} cycles")
    print(f"comm-aware runtime: {result.runtime:,} cycles")
    if widths == "all":
        print(f"parallel speedup:   {result.parallel_speedup:.2f}x")
        print(f"comm-aware speedup: {result.comm_aware_speedup:.2f}x "
              f"(vs naive {result.naive_runtime:,})")
    print(f"modules flattened:  {result.flattened_percent:.0f}%")
    if exported is not None:
        print(f"exported leaf {exported!r} schedule stream to "
              f"{args.export_stream}")
    if args.profile:
        print("\nblackbox dimensions (comm-aware runtime):")
        print(profile_table(result, metric="runtime"))
    if args.timeline and result.stream_schedules:
        leaves = sorted(result.stream_schedules)
        entry = result.program.entry
        name = entry if entry in result.stream_schedules else leaves[0]
        if name != entry:
            print(f"\n(entry {entry!r} is hierarchical; showing leaf "
                  f"{name!r})")
        print()
        print(render_timeline(
            result.stream_schedules[name],
            max_timesteps=args.timeline,
            operation=result.columns[name].operation,
        ))
    return 0


def _cmd_emit(args: argparse.Namespace) -> int:
    prog = _load_program(args.source)
    text = emit_qasm(prog)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _lint_one(source: str) -> Tuple[DiagnosticSet, Optional[Program]]:
    """Lint one source (benchmark key or file path) into diagnostics.

    File sources go through the front-end linter (parse errors become
    ``QL1xx`` diagnostics rather than exceptions); any program that
    parses — and every benchmark — is run through the full rule
    battery (``QL0xx``). The parsed/built program rides along for the
    ``--deep`` path (``None`` when the source didn't parse).
    """
    if source in BENCHMARKS:
        program = BENCHMARKS[source].build()
        return analyze_program(program), program
    try:
        with open(source) as fh:
            text = fh.read()
    except (FileNotFoundError, IsADirectoryError):
        raise CLIError(
            f"{source!r} is neither a benchmark "
            f"({', '.join(benchmark_names())}), 'all', nor a readable "
            "file"
        )
    if _is_scaffold_path(source):
        lint = lint_scaffold_source(text, filename=source)
    else:
        lint = lint_qasm_source(text, filename=source)
    diags = lint.diagnostics
    if lint.program is not None:
        diags.extend(analyze_program(lint.program))
    return diags, lint.program


def _deep_lint_one(
    source: str,
    program: Program,
    machine: MultiSIMD,
    info_sink: dict,
    graph=None,
) -> DiagnosticSet:
    """The ``--deep`` battery for one program.

    Runs the interprocedural analyses (``QL4xx`` lifetime rules and
    the ``QL501`` machine-fit check), then compiles the program and
    sanitizes the realized artifacts against the static bounds:
    retained full-width schedules through
    :func:`~repro.analysis.audit_schedule` (``deep=True``), and every
    module's blackbox profile through
    :func:`~repro.analysis.audit_profile_bounds`. With ``graph``, the
    multi-core pipeline's per-leaf schedules are audited too; a leaf
    that does not fit the cores is a usage error naming ``source``.
    """
    from .analysis import (
        ResourceAnalysis,
        analyze_deep,
        audit_profile_bounds,
        audit_schedule,
        solve_bottom_up,
    )

    out = DiagnosticSet()
    deep = analyze_deep(program, machine=machine)
    out.extend(deep.diagnostics)

    fth = _default_fth(source)
    result = compile_and_schedule(program, machine, fth=fth)
    for name, sched in result.schedules.items():
        profile = result.profiles.get(name)
        comm = profile.comm.get(machine.k) if profile is not None else None
        out.extend(
            audit_schedule(sched, module=name, deep=True, comm=comm)
        )
    # Profile bounds must be computed on the *scheduled* program: the
    # front-end passes can rewrite module bodies (e.g. rotation
    # synthesis may drop a near-identity rotation entirely), and
    # ``result.program`` is that decomposed and flattened program.
    bounds = solve_bottom_up(result.program, ResourceAnalysis()).summaries
    profiles_audited = 0
    for name, profile in result.profiles.items():
        summary = bounds.get(name)
        if summary is None:
            continue
        profiles_audited += 1
        out.extend(
            audit_profile_bounds(
                profile.length, profile.runtime, summary, module=name
            )
        )
    info_sink[source] = {
        "modules": len(deep.lifetime_result.order),
        "schedules_audited": len(result.schedules),
        "profiles_audited": profiles_audited,
    }
    if graph is not None:
        from .multicore import (
            MulticoreConfig,
            PartitionError,
            compile_and_schedule_multicore,
        )
        from .multicore.audit import audit_multicore_bounds

        try:
            mc = compile_and_schedule_multicore(
                program, machine, MulticoreConfig(graph), fth=fth
            )
        except PartitionError as exc:
            raise CLIError(f"{source}: {exc}") from None
        for name, msched in mc.leaf_schedules.items():
            out.extend(audit_multicore_bounds(msched, module=name))
        info_sink[source]["multicore"] = {
            "topology": graph.name,
            "cores": graph.cores,
            "leaves_audited": len(mc.leaf_schedules),
            "intercore_teleports": mc.intercore_teleports,
        }
    return out


def _cmd_verify(args: argparse.Namespace) -> int:
    """Semantic verification through the reversible simulator.

    Three modes, all on the 0/1/2/3/4 exit contract — 1 on a semantic
    mismatch (with the minimal counterexample input printed), 4 when an
    op outside the classical-permutation subset is located:

    * default — compile the program with the streaming pipeline
      (``decompose=False``: verification runs on the Scaffold-level
      reversible subset) and prove every retained leaf schedule
      replay bit-identical to the leaf body in program order;
    * ``--spec`` — bind a registered arithmetic spec (adder, compare,
      multiply) to its kernel module and check the kernel, applied its
      call-site iteration count, against the spec's reference function
      — then prove a windowed schedule of the full iterated stream
      replay-equivalent too (unless ``--no-schedule``);
    * ``--stream FILE`` — replay an exported ``repro.schedule-stream``
      JSONL file op-by-op and require bit-identical output to the
      unscheduled program.
    """
    from .passes.stream import leaf_stream
    from .sim.reversible import (
        DEFAULT_EXHAUSTIVE_LIMIT,
        DEFAULT_SAMPLES,
        NonReversibleOpError,
        SweepTooLargeError,
        compile_ops,
        streamed_schedule_ops,
        verify_equivalent,
        verify_reference,
    )
    from .sim.specs import SpecError, bind_spec
    from .toolflow import DEFAULT_WINDOW, compile_and_schedule_streamed

    machine = _machine(args)
    if args.window is not None and args.window < 0:
        raise CLIError(f"--window must be >= 0, got {args.window}")
    if args.exhaustive_limit is not None and args.exhaustive_limit < 0:
        raise CLIError(
            f"--exhaustive-limit must be >= 0, got {args.exhaustive_limit}"
        )
    prog = _load_program(args.source)
    if args.exhaustive and args.samples is not None:
        raise CLIError("--exhaustive and --samples are mutually exclusive")
    mode = "auto"
    samples = DEFAULT_SAMPLES
    if args.exhaustive:
        mode = "exhaustive"
    elif args.samples is not None:
        if args.samples < 1:
            raise CLIError("--samples must be >= 1")
        mode = "sampled"
        samples = args.samples
    limit = (
        args.exhaustive_limit
        if args.exhaustive_limit is not None
        else DEFAULT_EXHAUSTIVE_LIMIT
    )
    sweep = dict(
        mode=mode, exhaustive_limit=limit, samples=samples, seed=args.seed
    )
    window = None if args.window == 0 else (args.window or DEFAULT_WINDOW)
    scheduler = SchedulerConfig(args.scheduler)

    def report_line(report) -> bool:
        print(report.summary())
        if not report.ok:
            print(
                f"counterexample input: {report.counterexample.input_value}"
            )
        return report.ok

    try:
        if args.stream is not None:
            return _verify_stream_file(args, prog, sweep, report_line)
        if args.spec is not None:
            try:
                binding = bind_spec(
                    args.spec,
                    prog,
                    module=args.module,
                    iterations=args.iterations,
                )
            except SpecError as exc:
                raise CLIError(str(exc)) from None
            print(f"spec: {binding.description}")
            index = {q: i for i, q in enumerate(binding.qubits)}
            instrs = compile_ops(
                leaf_stream(prog, binding.module, decompose=False), index
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
                label=f"{binding.module} vs {binding.name} spec",
                **sweep,
            )
            ok = report_line(report)
            if ok and not args.no_schedule:
                ok = _verify_spec_schedule(
                    args, prog, binding, instrs, window, scheduler,
                    sweep, report_line,
                )
            return 0 if ok else EXIT_LINT

        # Locate any op outside the classical-permutation subset
        # *before* paying for scheduling — the hierarchical scan costs
        # O(source statements), not O(expanded gates).
        from .sim.reversible import classify_gate

        for name in prog.topological_order():
            for i, op in enumerate(prog.module(name).operations()):
                if classify_gate(op.gate) != "reversible":
                    operands = ", ".join(repr(q) for q in op.qubits)
                    print(
                        f"error: module {name!r} op {i}: "
                        f"{op.gate}({operands}) is not classically "
                        "reversible; the verifier covers the "
                        "X/CNOT/Toffoli/SWAP/Fredkin subset (bind an "
                        "arithmetic kernel with --spec instead)",
                        file=sys.stderr,
                    )
                    return EXIT_SCHEDULE

        fth = args.fth if args.fth is not None else _default_fth(args.source)
        result = compile_and_schedule_streamed(
            prog,
            machine,
            scheduler,
            fth=fth,
            decompose=False,
            window=window,
            widths="entry",
            keep_schedules=True,
        )
        ok = True
        for name in sorted(result.stream_schedules):
            cols = result.columns[name]
            report = verify_equivalent(
                iter(leaf_stream(prog, name, decompose=False)),
                streamed_schedule_ops(cols, result.stream_schedules[name]),
                cols.qubits,
                label=f"{name} ({scheduler.algorithm} k={machine.k})",
                **sweep,
            )
            ok = report_line(report) and ok
        if not result.stream_schedules:
            raise CLIError("no leaf schedules to verify")
        return 0 if ok else EXIT_LINT
    except NonReversibleOpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    except SweepTooLargeError as exc:
        raise CLIError(f"{exc}; check a sample with --samples N") from None


def _verify_stream_file(
    args: argparse.Namespace, prog: Program, sweep: dict, report_line
) -> int:
    """``verify --stream FILE``: exported replay vs. direct execution."""
    from .passes.stream import leaf_stream
    from .sched.report import _parse_qubit
    from .service.stream_io import ScheduleStreamError, stream_ops
    from .sim.reversible import verify_equivalent

    try:
        header, replay = stream_ops(args.stream)
    except FileNotFoundError:
        raise CLIError(f"stream file {args.stream!r} not found") from None
    except ScheduleStreamError as exc:
        return _invalid_stream(args.stream, exc)
    module = args.module or header["module"] or prog.entry
    if module not in prog:
        raise CLIError(
            f"stream header names module {module!r}, which the program "
            "does not contain (pass --module)"
        )
    universe: Dict[Qubit, None] = {}
    for q in prog.module(module).qubits():
        universe.setdefault(q)
    for name in header["qubits"]:
        universe.setdefault(_parse_qubit(name))
    try:
        report = verify_equivalent(
            iter(leaf_stream(prog, module, decompose=False)),
            replay,
            list(universe),
            label=f"{module} vs {args.stream}",
            **sweep,
        )
    except ScheduleStreamError as exc:
        return _invalid_stream(args.stream, exc)
    except KeyError as exc:
        raise CLIError(
            f"stream export and program disagree on qubit {exc}"
        ) from None
    return 0 if report_line(report) else EXIT_LINT


def _invalid_stream(path: str, exc: Exception) -> int:
    """Report unusable schedule-stream content (exit 4)."""
    print(f"error: invalid schedule stream {path!r}: {exc}", file=sys.stderr)
    return EXIT_SCHEDULE


def _verify_spec_schedule(
    args: argparse.Namespace,
    prog: Program,
    binding,
    instrs,
    window: Optional[int],
    scheduler: SchedulerConfig,
    sweep: dict,
    report_line,
) -> bool:
    """Spec mode's second proof: schedule the full iterated kernel
    stream through the windowed columnar scheduler and replay it."""
    from .core.opstream import GeneratorStream
    from .passes.stream import leaf_stream
    from .sched.stream import build_columns, schedule_columns
    from .sim.reversible import streamed_schedule_ops, verify_equivalent

    kernel_ops = list(leaf_stream(prog, binding.module, decompose=False))
    iterations = binding.iterations
    stream = GeneratorStream(
        lambda: (
            op for _ in range(iterations) for op in kernel_ops
        ),
        length_hint=len(kernel_ops) * iterations,
    )
    cols = build_columns(stream, window=window)
    ssched = schedule_columns(
        cols,
        scheduler.algorithm,
        args.k,
        args.d,
        lpfs_l=scheduler.lpfs_l,
        lpfs_simd=scheduler.lpfs_simd,
        lpfs_refill=scheduler.lpfs_refill,
    )
    report = verify_equivalent(
        iter(stream),
        streamed_schedule_ops(cols, ssched),
        cols.qubits,
        label=(
            f"{binding.module} x{iterations} schedule replay "
            f"({scheduler.algorithm} k={args.k}, {len(cols):,} ops, "
            f"{ssched.length:,} timesteps)"
        ),
        **sweep,
    )
    return report_line(report)


#: ``--fail-on`` values that name a severity threshold (or disable
#: failing); anything else must be a diagnostic-code prefix.
_FAIL_ON_CODE_RE = re.compile(r"QL\d{0,3}\Z")


def _cmd_lint(args: argparse.Namespace) -> int:
    fail_on = args.fail_on
    if fail_on not in ("error", "warning", "info", "never") and not (
        _FAIL_ON_CODE_RE.match(fail_on)
    ):
        raise CLIError(
            f"--fail-on expects a severity (error, warning, info), "
            f"'never', or a diagnostic-code prefix like 'QL4'; got "
            f"{fail_on!r}"
        )
    sources = (
        list(benchmark_names()) if args.source == "all"
        else [args.source]
    )

    machine = None
    graph = None
    deep_info: dict = {}
    if args.topology is not None and not args.deep:
        raise CLIError("--topology requires --deep")
    if args.deep:
        machine = _machine(args)
        if args.topology is not None:
            graph = _multicore_graph(args)

    diags = DiagnosticSet()
    for source in sources:
        found, program = _lint_one(source)
        if args.deep and program is not None:
            found.extend(
                _deep_lint_one(
                    source, program, machine, deep_info, graph=graph
                )
            )
        if args.source == "all":
            # Anchor benchmark findings to their benchmark key so an
            # aggregated report stays attributable.
            for d in found:
                diags.add(
                    d if d.module else replace(d, module=source)
                )
        else:
            diags.extend(found)
    if args.format == "json":
        doc = json.loads(diags.to_json())
        if args.deep:
            doc["deep"] = {
                "machine": {"k": machine.k, "d": machine.d},
                "sources": deep_info,
            }
        print(json.dumps(doc, indent=2))
    else:
        print(diags.render())
    if fail_on == "never":
        return 0
    if _FAIL_ON_CODE_RE.match(fail_on):
        hit = any(d.code.startswith(fail_on) for d in diags)
        return EXIT_LINT if hit else 0
    threshold = Severity.from_name(fail_on)
    return EXIT_LINT if diags.at_least(threshold) else 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from .service import (
        compare_perf_payloads,
        run_perf,
        validate_perf_payload,
    )

    if args.repeats < 1:
        raise CLIError(f"--repeats must be >= 1, got {args.repeats}")
    for flag, value in (
        ("--tolerance", args.tolerance),
        ("--memory-tolerance", args.memory_tolerance),
    ):
        if not (math.isfinite(value) and value >= 0):
            raise CLIError(
                f"{flag} must be a finite number >= 0, got {value}"
            )
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (FileNotFoundError, IsADirectoryError):
            raise CLIError(f"baseline {args.baseline!r} is not readable")
        except json.JSONDecodeError as exc:
            raise CLIError(
                f"baseline {args.baseline!r} is not JSON: {exc}"
            )
        problems = validate_perf_payload(baseline)
        if problems:
            raise CLIError(
                f"baseline {args.baseline!r} is not a valid perf "
                f"document: {'; '.join(problems[:3])}"
            )
    scale_jobs = None
    if args.scale_gates is not None:
        if args.no_scale:
            raise CLIError("--scale-gates conflicts with --no-scale")
        if args.scale_gates < 1:
            raise CLIError(
                f"--scale-gates must be >= 1, got {args.scale_gates}"
            )
        from .service import scale_perf_jobs

        scale_jobs = scale_perf_jobs(target_gates=args.scale_gates)
    payload = run_perf(
        repeats=args.repeats,
        include_scale=not args.no_scale,
        scale_jobs=scale_jobs,
        scale_fresh_process=not args.scale_in_process,
    )
    problems = validate_perf_payload(payload)
    for problem in problems:  # defensive; run_perf emits valid docs
        print(f"warning: invalid perf payload: {problem}",
              file=sys.stderr)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
    fast = payload["fast"]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"pinned grid: {len(fast['per_job'])} jobs x "
            f"{payload['repeats']} repeat(s), serial, uncached"
        )
        print(f"{'stage':<28} {'calls':>7} {'seconds':>9}")
        print("-" * 46)
        for name, stat in sorted(
            fast["stages"].items(), key=lambda kv: -kv[1]["seconds"]
        ):
            print(
                f"{name:<28} {stat['calls']:>7} "
                f"{stat['seconds']:>8.3f}s"
            )
        print("-" * 46)
        print(
            f"{'total compute':<28} {'':>7} "
            f"{fast['total_compute_s']:>8.3f}s"
        )
        print(f"machine probe: {payload['probe_s'] * 1e3:.3f} ms")
        if fast["peak_rss_kb"] is not None:
            print(f"peak RSS: {fast['peak_rss_kb'] / 1024:.0f} MiB")
        scale = payload.get("scale")
        if scale and scale.get("jobs"):
            iso = (
                "" if scale.get("process_isolated") else " (in-process)"
            )
            print(f"\nscale benchmarks{iso}:")
            print(f"{'job':<48} {'gates':>11} {'elapsed':>9} "
                  f"{'peak RSS':>9}")
            print("-" * 80)
            for row in scale["jobs"]:
                if row.get("status") != "ok":
                    print(f"{row.get('label', '?'):<48} "
                          f"{row.get('status')}: "
                          f"{row.get('error', 'unknown')}")
                    continue
                print(
                    f"{row['label']:<48} {row['total_gates']:>11,} "
                    f"{row['elapsed_s']:>8.2f}s "
                    f"{row['peak_rss_kb'] / 1024:>7.0f}MB"
                )
            if payload.get("streamed_overhead") is not None:
                print("streamed/materialized overhead: "
                      f"{payload['streamed_overhead']:.2f}x")
        if args.output:
            print(f"wrote {args.output}")
    failed = set(fast["failed_jobs"])
    for row in (payload.get("scale") or {}).get("jobs", []):
        if row.get("status") != "ok":
            failed.add(row.get("label", "scale:?"))
    if failed:
        print(
            f"error: {len(failed)} job(s) failed: "
            + ", ".join(sorted(failed)[:5]),
            file=sys.stderr,
        )
        return EXIT_LINT
    if baseline is not None:
        regressions = compare_perf_payloads(
            payload,
            baseline,
            tolerance=args.tolerance,
            memory_tolerance=args.memory_tolerance,
        )
        for regression in regressions:
            print(f"regression: {regression}", file=sys.stderr)
        if regressions:
            return EXIT_LINT
        print(f"no regressions vs {args.baseline}")
    return 0


def _parse_rate(text: str) -> float:
    if text in ("inf", "infinite"):
        return float("inf")
    try:
        rate = float(text)
    except ValueError:
        raise CLIError(
            f"invalid rate {text!r} (expected a number or 'inf')"
        ) from None
    if not rate > 0:
        raise CLIError(f"rate must be positive, got {text!r}")
    return rate


def _engine_config(args: argparse.Namespace):
    """Build an :class:`~repro.engine.EngineConfig` from CLI flags."""
    from .arch.numa import NUMAConfig
    from .engine import EngineConfig, FaultConfig

    numa = None
    if (
        args.banks is not None
        or args.channel_bw is not None
        or args.bank_egress is not None
    ):
        try:
            numa = NUMAConfig(
                banks=args.banks if args.banks is not None else 1,
                channel_bandwidth=(
                    _parse_rate(args.channel_bw)
                    if args.channel_bw is not None
                    else math.inf
                ),
                bank_egress=(
                    _parse_rate(args.bank_egress)
                    if args.bank_egress is not None
                    else math.inf
                ),
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    faults = None
    if args.qecc_level is not None:
        try:
            faults = FaultConfig.from_qecc(
                args.qecc_level,
                epr_failure_prob=args.fault_epr,
                region_failure_prob=args.fault_region,
                region_downtime=args.fault_downtime,
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    elif args.fault_epr or args.fault_region or args.gate_error_rate:
        try:
            faults = FaultConfig(
                epr_failure_prob=args.fault_epr,
                region_failure_prob=args.fault_region,
                region_downtime=args.fault_downtime,
                gate_error_rate=args.gate_error_rate,
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    return EngineConfig(
        epr_rate=_parse_rate(args.epr_rate),
        numa=numa,
        faults=faults,
        seed=args.seed,
        collect_trace=args.trace is not None,
    )


def _machine_doc(machine: MultiSIMD) -> Dict[str, Any]:
    return {
        "k": machine.k,
        "d": machine.d,
        "local_memory": machine.local_memory,
    }


def _write_trace(path: str, payload: Dict[str, Any]) -> int:
    """Write a ``repro.trace/1`` payload as a Chrome trace; return the
    number of events written."""
    from .engine import validate_trace_payload, write_chrome_trace

    for problem in validate_trace_payload(payload):
        # Defensive; the engine emits valid docs.
        print(f"warning: invalid trace payload: {problem}", file=sys.stderr)
    return write_chrome_trace(path, payload)


def _print_faults(log, width: int) -> None:
    if log.total_events:
        print(f"{'faults injected:':<{width}}{log.total_events:,} "
              f"(epr regen {log.epr_regenerations:,}, region down "
              f"{log.region_down_events:,}, gate errors "
              f"{log.gate_errors:,})")


def _execute_stream(args: argparse.Namespace) -> int:
    """The ``execute --stream`` path: run the engine epoch-at-a-time
    over a ``repro.schedule-stream`` export without inflating it.

    Traces are sampled (``--sample-every``) so even a 10^7-gate export
    can be traced; stall and fault events are always recorded.
    """
    from .engine import EngineError
    from .engine.trace import build_payload
    from .service import execute_schedule_stream

    if args.source is not None:
        raise CLIError(
            "--stream replaces the source argument (got both "
            f"{args.stream!r} and {args.source!r})"
        )
    if args.topology is not None:
        raise CLIError("--stream cannot be combined with --topology")
    if args.sample_every < 1:
        raise CLIError(
            f"--sample-every must be >= 1, got {args.sample_every}"
        )
    machine = _machine(args)
    config = _engine_config(args)
    try:
        header, result, comm = execute_schedule_stream(
            args.stream,
            machine,
            config,
            sample_every=args.sample_every,
        )
    except (FileNotFoundError, IsADirectoryError):
        raise CLIError(f"{args.stream!r} is not a readable file")
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        return _invalid_stream(args.stream, exc)

    trace_events = None
    if args.trace and result.trace is not None:
        payload = build_payload(
            [(result.module, result.trace)],
            runtime=result.realized_runtime,
            machine=_machine_doc(machine),
            stats={
                "entry": result.module,
                "realized_runtime": result.realized_runtime,
                "analytic_runtime": result.analytic_runtime,
                "modules": 1,
                "engine_config": config.to_dict(),
                "faults": result.fault_log.total_events,
                "sample_every": args.sample_every,
            },
        )
        trace_events = _write_trace(args.trace, payload)
    if args.json:
        doc = result.to_dict()
        doc["stream"] = {
            "path": args.stream,
            "schema": header["schema"],
            "module": header.get("module"),
            "algorithm": header.get("algorithm"),
            "op_count": header.get("op_count"),
            "timesteps": header.get("length"),
            "sample_every": args.sample_every,
        }
        if comm is not None:
            doc["stream"]["compile_runtime"] = comm.runtime
        doc["machine"] = _machine_doc(machine)
        print(json.dumps(doc, indent=2))
        return 0
    stalls = result.stalls
    util = result.utilization
    avg_util = sum(util.values()) / len(util) if util else 0.0
    ideal = result.realized_runtime == result.analytic_runtime
    print(f"machine:           {machine}")
    print(f"stream:            {args.stream} "
          f"({header.get('algorithm')}, module "
          f"{header.get('module') or '?'!r})")
    print(f"ops executed:      {result.ops_executed:,} over "
          f"{header.get('length', 0):,} timesteps")
    print(f"analytic runtime:  {result.analytic_runtime:,} cycles")
    print(f"realized runtime:  {result.realized_runtime:,} cycles"
          + ("  (= analytic)" if ideal else ""))
    print(f"stall cycles:      {stalls.total:,} "
          f"(epr {stalls.epr:,}, bandwidth {stalls.bandwidth:,}, "
          f"fault {stalls.fault:,})")
    print(f"utilization:       {100 * avg_util:.1f}%")
    print(f"teleport rounds:   {result.teleport_rounds:,}")
    _print_faults(result.fault_log, 19)
    if comm is not None and comm.runtime != result.analytic_runtime:
        print(f"compile-time est.: {comm.runtime:,} cycles "
              "(footer CommStats)")
    print("preflight:         unavailable (streamed execution)")
    if args.trace:
        if trace_events is None:
            print("trace:             not collected", file=sys.stderr)
        else:
            print(f"wrote {trace_events} trace events to {args.trace} "
                  "(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _run_execution(
    args: argparse.Namespace,
    execute: Callable[[bool], Any],
    machine: Dict[str, Any],
    summary: Callable[[Any], None],
    metrics: Optional[Dict[str, Any]] = None,
    trace_note: str = "",
) -> int:
    """Run ``execute(preflight)`` and report it the way ``execute`` and
    ``execute --topology`` share: a preflight refusal exits 4 and any
    other engine error 2; ``--trace`` writes the Chrome trace;
    ``--json`` prints the execution document under ``machine`` and
    ``metrics`` (prefixed to the execution's own); otherwise
    ``summary`` prints the text report."""
    from .engine import EngineError, PreflightError

    try:
        execution = execute(not args.no_preflight)
    except PreflightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for code, message, _t in exc.violations[:10]:
            print(f"  {code}: {message}", file=sys.stderr)
        if len(exc.violations) > 10:
            print(
                f"  ... {len(exc.violations) - 10} more",
                file=sys.stderr,
            )
        return EXIT_SCHEDULE
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    trace_events = None
    if args.trace:
        trace_events = _write_trace(args.trace, execution.to_trace_payload())
    if args.json:
        doc = execution.to_dict()
        doc["scheduler"] = args.scheduler
        doc["machine"] = machine
        doc["metrics"] = {**(metrics or {}), **execution.metrics()}
        print(json.dumps(doc, indent=2))
        return 0
    summary(execution)
    if args.trace:
        print(f"wrote {trace_events} trace events to {args.trace} "
              f"({trace_note}load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    from .engine import execute_result

    if args.stream is not None:
        return _execute_stream(args)
    if args.source is None:
        raise CLIError(
            "execute needs a source (benchmark key / file) or "
            "--stream FILE"
        )
    machine = _machine(args)
    config = _engine_config(args)
    prog = _load_program(args.source)
    fth = args.fth
    if fth is None:
        fth = _default_fth(args.source)
    if args.topology is not None:
        return _execute_multicore(args, config, prog, machine, fth)
    result = compile_and_schedule(
        prog, machine, SchedulerConfig(args.scheduler), fth=fth
    )

    def summary(execution) -> None:
        stalls = execution.stalls
        print(f"machine:           {machine}")
        print(f"scheduler:         {args.scheduler}")
        print(f"entry module:      {execution.entry} "
              f"({len(execution.leaves)} leaf, "
              f"{len(execution.coarse)} coarse)")
        print(f"analytic runtime:  {execution.analytic_runtime:,} cycles")
        print(f"realized runtime:  {execution.realized_runtime:,} cycles"
              + ("  (= analytic)" if execution.ideal_match else ""))
        print(f"stall cycles:      {stalls.total:,} "
              f"(epr {stalls.epr:,}, bandwidth {stalls.bandwidth:,}, "
              f"fault {stalls.fault:,})")
        print(f"utilization:       {100 * execution.utilization:.1f}%")
        print(f"teleport rounds:   {execution.teleport_rounds:,}")
        _print_faults(execution.fault_log, 19)
        if execution.leaves and any(
            r.preflight_violations is not None
            for r in execution.leaves.values()
        ):
            print("preflight:         passed (0 violations)")
        elif args.no_preflight:
            print("preflight:         skipped (--no-preflight)")

    return _run_execution(
        args,
        lambda preflight: execute_result(result, config, preflight=preflight),
        _machine_doc(machine),
        summary,
    )


def _multicore_graph(args: argparse.Namespace):
    """Build the :class:`~repro.multicore.CoreGraph` named by CLI
    flags, mapping topology spelling errors to the usage contract."""
    from .multicore import TopologyError, parse_topology

    try:
        return parse_topology(args.topology, args.cores, args.link_bw)
    except TopologyError as exc:
        raise CLIError(str(exc)) from None


def _execute_multicore(
    args: argparse.Namespace,
    config,
    prog,
    machine: MultiSIMD,
    fth: int,
) -> int:
    """The ``execute --topology`` path: multi-core compile + engine.

    ``-k``/``-d`` describe each *core* (the machine has ``--cores`` of
    them); ``--epr-rate`` throttles the per-core intra pools and
    ``--link-epr-rate`` the interconnect links (defaulting to the
    intra rate, so one knob throttles both).
    """
    from .multicore import (
        MulticoreConfig,
        PartitionError,
        compile_and_schedule_multicore,
        execute_multicore_result,
    )

    graph = _multicore_graph(args)
    link_rate = (
        _parse_rate(args.link_epr_rate)
        if args.link_epr_rate is not None
        else config.epr_rate
    )
    mc_config = MulticoreConfig(graph, link_epr_rate=link_rate)
    try:
        result = compile_and_schedule_multicore(
            prog,
            machine,
            mc_config,
            SchedulerConfig(args.scheduler),
            fth=fth,
        )
    except PartitionError as exc:
        raise CLIError(str(exc)) from None

    def summary(execution) -> None:
        stalls = execution.stalls
        print(f"machine:            {graph.cores} x {machine} "
              f"[{graph.name}, link bw {args.link_bw:g}]")
        print(f"scheduler:          {args.scheduler}")
        print(f"entry module:       {execution.entry} "
              f"({len(execution.leaves)} leaf, "
              f"{len(execution.coarse)} coarse)")
        print(f"analytic makespan:  {execution.analytic_runtime:,} cycles")
        print(f"realized makespan:  {execution.realized_runtime:,} cycles"
              + ("  (= analytic)" if execution.ideal_match else ""))
        print(f"stall cycles:       {stalls.total:,} "
              f"(intra-core {stalls.intra:,}, "
              f"inter-core {stalls.intercore:,})")
        print(f"inter-core comm:    {result.intercore_teleports:,} "
              f"teleport(s), {result.intercore_pairs:,} EPR pair(s), "
              f"cut weight {result.cut_weight:,}, "
              f"max {result.max_hops} hop(s)")
        print(f"decomposition:      "
              + ("ok (realized == analytic + stalls per leaf)"
                 if execution.decomposition_ok else "VIOLATED"))
        print(f"utilization:        {100 * execution.utilization:.1f}%")
        _print_faults(execution.fault_log, 20)
        if args.no_preflight:
            print("preflight:          skipped (--no-preflight)")

    return _run_execution(
        args,
        lambda preflight: execute_multicore_result(
            result, config, preflight=preflight
        ),
        {
            **_machine_doc(machine),
            "cores": graph.cores,
            "topology": graph.name,
            "link_bw": args.link_bw,
        },
        summary,
        metrics=result.metrics(),
        trace_note="one lane per core; ",
    )


def _cmd_partition(args: argparse.Namespace) -> int:
    from .multicore import (
        MulticoreConfig,
        PartitionError,
        compile_and_schedule_multicore,
    )

    machine = _machine(args)
    prog = _load_program(args.source)
    fth = args.fth
    if fth is None:
        fth = _default_fth(args.source)
    graph = _multicore_graph(args)
    config = MulticoreConfig(
        graph, seed=args.seed, refine=not args.no_refine
    )
    try:
        result = compile_and_schedule_multicore(
            prog,
            machine,
            config,
            SchedulerConfig(args.scheduler),
            fth=fth,
        )
    except PartitionError as exc:
        raise CLIError(str(exc)) from None
    if args.format == "json":
        doc = {
            "source": args.source,
            "topology": graph.to_dict(),
            "machine": {"k": machine.k, "d": machine.d},
            "seed": args.seed,
            "refine": not args.no_refine,
            "partitions": {
                name: report.to_dict()
                for name, report in sorted(result.partitions.items())
            },
            "leaves": {
                name: {
                    "makespan": msched.makespan,
                    "intra_runtime": msched.intra_runtime,
                    "intercore_cycles": msched.intercore_cycles,
                    "intercore_teleports": msched.intercore_teleports,
                    "max_hops": msched.max_hops,
                }
                for name, msched in sorted(result.leaf_schedules.items())
            },
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"machine:  {graph.cores} x {machine} "
          f"[{graph.name}, link bw {args.link_bw:g}]")
    cap = machine.k if machine.d is None else machine.k * machine.d
    print(f"capacity: "
          + ("unbounded" if machine.d is None
             else f"{cap} qubit(s) per core")
          + f", seed {args.seed}"
          + ("" if not args.no_refine else ", refinement off"))
    header = (
        f"{'leaf':<24} {'qubits':>6} {'cut':>5} {'total':>6} "
        f"{'cut %':>6} {'balance':>7} {'moves':>5} {'occupancy'}"
    )
    print(header)
    print("-" * len(header))
    for name, report in sorted(result.partitions.items()):
        occupancy = "/".join(str(n) for n in report.occupancy)
        print(
            f"{name:<24} {report.qubits:>6} {report.cut_weight:>5} "
            f"{report.total_weight:>6} "
            f"{100 * report.cut_fraction:>5.1f}% "
            f"{report.balance:>7.2f} {report.moves:>5} {occupancy}"
        )
        msched = result.leaf_schedules.get(name)
        if msched is not None and msched.intercore_teleports:
            print(
                f"{'':<24} -> makespan {msched.makespan:,} = intra "
                f"{msched.intra_runtime:,} + inter-core "
                f"{msched.intercore_cycles:,} "
                f"({msched.intercore_teleports} teleport(s), max "
                f"{msched.max_hops} hop(s))"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-SIMD quantum scheduling toolflow (ASPLOS'15 "
            "reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(
        fn=_cmd_list
    )

    p_est = sub.add_parser(
        "estimate", help="hierarchical resource estimation"
    )
    p_est.add_argument("source", help="benchmark key or QASM file")
    p_est.set_defaults(fn=_cmd_estimate)

    p_c = sub.add_parser("compile", help="compile and schedule")
    p_c.add_argument(
        "source",
        help=(
            "benchmark key, QASM/Scaffold file, or synthetic "
            "scale:<kind>[:<gates>] (e.g. scale:adder:1e7)"
        ),
    )
    p_c.add_argument("-k", type=int, default=4, help="SIMD regions")
    p_c.add_argument(
        "-d", type=int, default=None,
        help="qubits per region (default unbounded)",
    )
    p_c.add_argument(
        "--scheduler", choices=("sequential", "rcp", "lpfs"),
        default="lpfs",
    )
    p_c.add_argument(
        "--local-mem", default=None,
        help="scratchpad capacity per region: none, a number, or inf",
    )
    p_c.add_argument(
        "--fth", type=int, default=None,
        help="flattening threshold in ops (default: per-benchmark)",
    )
    p_c.add_argument(
        "--optimize", action="store_true",
        help="run peephole cancellation/merging before decomposition",
    )
    p_c.add_argument(
        "--no-decompose", action="store_true",
        help=(
            "schedule Scaffold-level gates without lowering to the "
            "QASM subset (keeps Toffoli/SWAP intact, so exported "
            "streams stay inside the reversible verifier's subset)"
        ),
    )
    p_c.add_argument(
        "--strict", action="store_true",
        help="run the static analyzer between passes; fail on errors",
    )
    p_c.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_c.add_argument(
        "--profile", action="store_true",
        help="print per-module blackbox dimensions",
    )
    p_c.add_argument(
        "--timeline", type=int, nargs="?", const=30, default=None,
        metavar="N", help="print the first N schedule timesteps",
    )
    p_c.add_argument(
        "--stream", action="store_true",
        help=(
            "use the streaming pipeline: bounded-memory columnar "
            "scheduling with bit-identical metrics"
        ),
    )
    p_c.add_argument(
        "--window", type=int, default=None, metavar="N",
        help=(
            "streaming ingestion window in ops (implies --stream; "
            "0 = unbounded; default 65536). It bounds boxed ops only "
            "for caller-built streams: --stream leaves are spliced "
            "int-coded and box none. Schedules are identical for "
            "every window"
        ),
    )
    p_c.add_argument(
        "--export-stream", default=None, metavar="FILE",
        help=(
            "write the entry leaf's schedule as a repro.schedule-"
            "stream JSONL file, epoch-at-a-time ('.gz' compresses; "
            "implies --stream)"
        ),
    )
    p_c.add_argument(
        "--entry-width-only", action="store_true",
        help=(
            "with --stream: profile only the full machine width "
            "(paper-scale mode; skips the 1..k width sweep)"
        ),
    )
    p_c.set_defaults(fn=_cmd_compile)

    p_v = sub.add_parser(
        "verify",
        help=(
            "prove schedules and rewrites semantics-preserving with "
            "the reversible simulator"
        ),
    )
    p_v.add_argument(
        "source",
        help=(
            "benchmark key, QASM/Scaffold file, or synthetic "
            "scale:<kind>[:<gates>][:wN] (e.g. scale:adder:1e5:w8)"
        ),
    )
    p_v.add_argument(
        "--spec", default=None, metavar="NAME",
        help=(
            "check a registered arithmetic spec (adder, compare, "
            "multiply) against its kernel module's semantics"
        ),
    )
    p_v.add_argument(
        "--module", default=None, metavar="NAME",
        help="kernel module to bind (default: by spec register shape)",
    )
    p_v.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help=(
            "how many times the kernel applies (default: the entry "
            "point's call multiplicity)"
        ),
    )
    p_v.add_argument(
        "--stream", default=None, metavar="FILE",
        help=(
            "replay an exported repro.schedule-stream JSONL file "
            "op-by-op against the unscheduled program"
        ),
    )
    p_v.add_argument(
        "--exhaustive", action="store_true",
        help="sweep every input regardless of register size",
    )
    p_v.add_argument(
        "--samples", type=int, default=None, metavar="N",
        help="force a sampled sweep with N seeded inputs",
    )
    p_v.add_argument(
        "--seed", type=int, default=0, help="sample seed (default 0)"
    )
    p_v.add_argument(
        "--exhaustive-limit", type=int, default=None, metavar="BITS",
        help=(
            "auto mode sweeps all inputs up to this many input bits "
            "and samples above it (default 18)"
        ),
    )
    p_v.add_argument(
        "--no-schedule", action="store_true",
        help="spec mode: skip the scheduled-replay proof",
    )
    p_v.add_argument("-k", type=int, default=4, help="SIMD regions")
    p_v.add_argument(
        "-d", type=int, default=None,
        help="qubits per region (default unbounded)",
    )
    p_v.add_argument(
        "--scheduler", choices=("sequential", "rcp", "lpfs"),
        default="lpfs",
    )
    p_v.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="streaming ingestion window in ops (0 = unbounded)",
    )
    p_v.add_argument(
        "--fth", type=int, default=None,
        help="flattening threshold in ops (default: per-benchmark)",
    )
    p_v.set_defaults(fn=_cmd_verify)

    p_e = sub.add_parser("emit", help="emit hierarchical QASM")
    p_e.add_argument("source", help="benchmark key or QASM file")
    p_e.add_argument("-o", "--output", default=None)
    p_e.set_defaults(fn=_cmd_emit)

    p_l = sub.add_parser(
        "lint", help="run the static analyzer (qlint)"
    )
    p_l.add_argument(
        "source",
        help=(
            "benchmark key, 'all' for the whole registry, or a "
            "Scaffold/QASM file"
        ),
    )
    p_l.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_l.add_argument(
        "--fail-on", default="error", metavar="WHEN",
        help=(
            "what makes the exit code non-zero: a severity name "
            "(error, warning, info — lowest severity that fails), "
            "'never', or a diagnostic-code prefix such as QL4 or "
            "QL502 (default error)"
        ),
    )
    p_l.add_argument(
        "--deep", action="store_true",
        help=(
            "additionally run the interprocedural battery (QL4xx "
            "qubit-lifetime rules, QL501 machine fit) and sanitize "
            "compiled schedules/profiles against the static "
            "resource/communication bounds (QL502-QL504)"
        ),
    )
    p_l.add_argument(
        "-k", type=int, default=4,
        help="SIMD regions assumed by --deep (default 4)",
    )
    p_l.add_argument(
        "-d", type=int, default=4,
        help="ops per region assumed by --deep (default 4)",
    )
    p_l.add_argument(
        "--topology", default=None, metavar="NAME",
        help=(
            "with --deep: additionally audit the multi-core pipeline "
            "on this interconnect (line, ring, mesh, all-to-all) — "
            "per-core schedule bounds plus the topology-aware QL503 "
            "inter-core communication floor"
        ),
    )
    p_l.add_argument(
        "--cores", type=int, default=2,
        help="core count for --topology (default 2)",
    )
    p_l.add_argument(
        "--link-bw", type=float, default=1.0, dest="link_bw",
        metavar="B",
        help="EPR pairs per teleport round per link (default 1)",
    )
    p_l.set_defaults(fn=_cmd_lint)

    p_p = sub.add_parser(
        "perf",
        help="benchmark the pipeline on the pinned grid",
    )
    p_p.add_argument(
        "--repeats", type=int, default=2, metavar="N",
        help="measurement repeats; minimums are kept (default 2)",
    )
    p_p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=(
            "committed BENCH_perf.json to compare against; any stage "
            ">25%% over its machine-scaled budget fails with exit 1"
        ),
    )
    p_p.add_argument(
        "--tolerance", type=float, default=0.25, metavar="T",
        help="allowed fractional slowdown per stage (default 0.25)",
    )
    p_p.add_argument(
        "-o", "--output", default="BENCH_perf.json",
        help="perf report path (default BENCH_perf.json; '' to skip)",
    )
    p_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format (default text)",
    )
    p_p.add_argument(
        "--scale-gates", type=int, default=None, metavar="N",
        help=(
            "target gate count for the synthetic scale benchmarks "
            "(default 200000); streamed and materialized pipelines "
            "are measured at the same size"
        ),
    )
    p_p.add_argument(
        "--no-scale", action="store_true",
        help="skip the synthetic scale benchmarks",
    )
    p_p.add_argument(
        "--scale-in-process", action="store_true",
        help=(
            "run scale jobs in this process instead of fresh "
            "subprocesses (faster, but peak-RSS readings include "
            "whatever this process already allocated)"
        ),
    )
    p_p.add_argument(
        "--memory-tolerance", type=float, default=0.35, metavar="T",
        help=(
            "allowed fractional peak-RSS growth per scale job vs the "
            "machine-rescaled baseline (default 0.35)"
        ),
    )
    p_p.set_defaults(fn=_cmd_perf)

    p_x = sub.add_parser(
        "execute",
        help="execute a compiled schedule on the discrete-event engine",
    )
    p_x.add_argument(
        "source", nargs="?", default=None,
        help=(
            "benchmark key, QASM/Scaffold file, or synthetic "
            "scale:<kind>[:<gates>] (omit with --stream)"
        ),
    )
    p_x.add_argument("-k", type=int, default=4, help="SIMD regions")
    p_x.add_argument(
        "-d", type=int, default=None,
        help="qubits per region (default unbounded)",
    )
    p_x.add_argument(
        "--scheduler", choices=("sequential", "rcp", "lpfs"),
        default="lpfs",
    )
    p_x.add_argument(
        "--local-mem", default=None,
        help="scratchpad capacity per region: none, a number, or inf",
    )
    p_x.add_argument(
        "--fth", type=int, default=None,
        help="flattening threshold in ops (default: per-benchmark)",
    )
    p_x.add_argument(
        "--epr-rate", default="inf", metavar="R",
        help=(
            "steady EPR generation rate in pairs/cycle, or 'inf' for "
            "fully masked pre-distribution (default inf)"
        ),
    )
    p_x.add_argument(
        "--banks", type=int, default=None, metavar="N",
        help="distributed-memory banks (enables NUMA billing)",
    )
    p_x.add_argument(
        "--channel-bw", default=None, metavar="B",
        help="per-(bank,region) channel bandwidth per teleport round",
    )
    p_x.add_argument(
        "--bank-egress", default=None, metavar="B",
        help="per-bank egress capacity per teleport round",
    )
    p_x.add_argument(
        "--fault-epr", type=float, default=0.0, metavar="P",
        help="EPR generation failure probability (retried)",
    )
    p_x.add_argument(
        "--fault-region", type=float, default=0.0, metavar="P",
        help="per-timestep transient region-failure probability",
    )
    p_x.add_argument(
        "--fault-downtime", type=int, default=8, metavar="N",
        help="cycles a failed region stays down (default 8)",
    )
    p_x.add_argument(
        "--gate-error-rate", type=float, default=0.0, metavar="P",
        help="per-gate logical error probability",
    )
    p_x.add_argument(
        "--qecc-level", type=int, default=None, metavar="L",
        help=(
            "derive the gate error rate from a level-L concatenated "
            "code instead of --gate-error-rate"
        ),
    )
    p_x.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection RNG seed (default 0)",
    )
    p_x.add_argument(
        "--topology", default=None, metavar="NAME",
        help=(
            "execute on a multi-core machine: interconnect topology "
            "(line, ring, mesh, all-to-all); -k/-d then describe "
            "each core"
        ),
    )
    p_x.add_argument(
        "--cores", type=int, default=2,
        help="core count (with --topology; default 2)",
    )
    p_x.add_argument(
        "--link-bw", type=float, default=1.0, dest="link_bw",
        metavar="B",
        help=(
            "EPR pairs per teleport round per interconnect link "
            "(default 1)"
        ),
    )
    p_x.add_argument(
        "--link-epr-rate", default=None, metavar="R",
        dest="link_epr_rate",
        help=(
            "interconnect EPR generation rate per link in "
            "pairs/cycle, or 'inf' (default: the --epr-rate value)"
        ),
    )
    p_x.add_argument(
        "--no-preflight", action="store_true",
        help=(
            "skip the replay preflight (by default QL3xx violations "
            "refuse execution with exit code 4)"
        ),
    )
    p_x.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "write a Chrome trace-event file (chrome://tracing / "
            "Perfetto)"
        ),
    )
    p_x.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_x.add_argument(
        "--stream", default=None, metavar="FILE",
        help=(
            "execute a repro.schedule-stream export epoch-at-a-time "
            "(bounded memory; replaces the source argument)"
        ),
    )
    p_x.add_argument(
        "--sample-every", type=int, default=1, metavar="N",
        help=(
            "with --stream --trace: record every Nth gate/move trace "
            "event; stalls and faults are always recorded (default 1)"
        ),
    )
    p_x.set_defaults(fn=_cmd_execute)

    p_pt = sub.add_parser(
        "partition",
        help="partition a program's qubits over a multi-core machine",
    )
    p_pt.add_argument("source", help="benchmark key or QASM file")
    p_pt.add_argument(
        "-k", type=int, default=4, help="SIMD regions per core"
    )
    p_pt.add_argument(
        "-d", type=int, default=None,
        help="qubits per region (default unbounded)",
    )
    p_pt.add_argument(
        "--scheduler", choices=("sequential", "rcp", "lpfs"),
        default="lpfs",
    )
    p_pt.add_argument(
        "--topology", default="all-to-all", metavar="NAME",
        help=(
            "interconnect topology: line, ring, mesh, all-to-all "
            "(default all-to-all)"
        ),
    )
    p_pt.add_argument(
        "--cores", type=int, default=2,
        help="core count (default 2)",
    )
    p_pt.add_argument(
        "--link-bw", type=float, default=1.0, dest="link_bw",
        metavar="B",
        help=(
            "EPR pairs per teleport round per interconnect link "
            "(default 1)"
        ),
    )
    p_pt.add_argument(
        "--fth", type=int, default=None,
        help="flattening threshold in ops (default: per-benchmark)",
    )
    p_pt.add_argument(
        "--seed", type=int, default=0,
        help="partitioner determinism seed (default 0)",
    )
    p_pt.add_argument(
        "--no-refine", action="store_true",
        help="skip the local-search refinement pass (greedy only)",
    )
    p_pt.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_pt.set_defaults(fn=_cmd_partition)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (
        ScaffoldSyntaxError, QasmSyntaxError, ProgramValidationError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINT
    except (ScheduleError, ReplayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
