"""End-to-end toolflow: plan -> flatten and decompose -> schedule -> account.

This is the ScaffCC-equivalent driver (Section 3): a hierarchical
program goes through gate decomposition and threshold flattening (one
plan step, :func:`_plan`, decides which modules become leaves, and
each leaf body is inlined and decomposed by
:func:`~repro.passes.stream.leaf_stream`), leaf
modules are fine-scheduled (RCP or LPFS) at every candidate width,
movement is derived against the machine model, and non-leaf modules are
coarse-scheduled over flexible blackbox dimensions. The result carries
everything the paper's figures report: schedule lengths, communication-
aware runtimes, speedups against the sequential and naive-movement
baselines, and the estimated critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .analysis import (
    AnalysisError,
    Diagnostic,
    DiagnosticSet,
    analyze_deep,
    analyze_program,
    audit_profile_bounds,
    audit_schedule,
)
from .arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    TELEPORT_CYCLES,
)
from .core.dag import DependenceDAG
from .core.module import Module, Program
from .instrument import span
from .passes.decompose import DecomposeConfig, decompose_module
from .passes.flatten import DEFAULT_FTH
from .passes.optimize import optimize_program
from .passes.resource import total_gate_counts
# These stay bound here as bench/trace.py hook targets (the front end
# plans once and inlines through leaf_stream; the entry's gate total
# comes from the plan's counts).
from .passes.decompose import decompose_program  # noqa: F401
from .passes.flatten import flatten_program  # noqa: F401
from .passes.resource import estimate_resources  # noqa: F401
from .passes.stream import (
    FlattenPlan,
    decomposed_gate_counts,
    leaf_stream,
    plan_flatten,
)
from .sched.coarse import best_dim, coarse_length_profile
from .sched.comm import CommStats, derive_movement, naive_runtime
from .sched.lpfs import schedule_lpfs
from .sched.metrics import (
    comm_speedup,
    hierarchical_critical_path,
    module_critical_path,
    parallel_speedup,
)
from .sched.rcp import schedule_rcp
from .sched.sequential import schedule_sequential
from .sched.stream import (
    StreamColumns,
    build_columns,
    derive_movement_stream,
    schedule_columns,
)
from .sched.types import Schedule

__all__ = [
    "SchedulerConfig",
    "ModuleProfile",
    "CompileResult",
    "compile_and_schedule",
    "StreamedCompileResult",
    "compile_and_schedule_streamed",
    "DEFAULT_WINDOW",
]

#: Default ingestion window for the streaming pipeline: enough ops per
#: chunk that chunking overhead vanishes, small enough that boxed-op
#: peak memory stays in the tens of MiB.
DEFAULT_WINDOW = 65536


@dataclass(frozen=True)
class SchedulerConfig:
    """Fine-grained scheduler selection and options.

    ``algorithm`` is ``"sequential"`` (the one-op-per-timestep baseline
    the paper's speedups are measured against), ``"rcp"`` or
    ``"lpfs"``. The LPFS options default to the paper's experimental
    configuration (l=1, SIMD and Refill on).
    """

    algorithm: str = "lpfs"
    lpfs_l: int = 1
    lpfs_simd: bool = True
    lpfs_refill: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ("sequential", "rcp", "lpfs"):
            raise ValueError(
                f"unknown scheduler {self.algorithm!r} "
                "(expected 'sequential', 'rcp' or 'lpfs')"
            )

    def schedule(self, dag: DependenceDAG, k: int, d: Optional[int]) -> Schedule:
        if self.algorithm == "sequential":
            return schedule_sequential(dag, k=k, d=d)
        if self.algorithm == "rcp":
            return schedule_rcp(dag, k=k, d=d)
        return schedule_lpfs(
            dag,
            k=k,
            d=d,
            l=min(self.lpfs_l, k),
            simd=self.lpfs_simd,
            refill=self.lpfs_refill,
        )


@dataclass
class ModuleProfile:
    """Blackbox dimensions of one module at every candidate width.

    ``length`` maps width -> schedule cycles (communication-free);
    ``runtime`` maps width -> communication-aware cycles.
    """

    name: str
    is_leaf: bool
    length: Dict[int, int] = field(default_factory=dict)
    runtime: Dict[int, int] = field(default_factory=dict)
    comm: Dict[int, CommStats] = field(default_factory=dict)


@dataclass
class CompileResult:
    """Everything the evaluation figures are computed from."""

    program: Program
    machine: MultiSIMD
    scheduler: SchedulerConfig
    profiles: Dict[str, ModuleProfile]
    schedules: Dict[str, Schedule]
    total_gates: int
    critical_path: int
    flattened_percent: float
    #: Diagnostics gathered by strict-mode analysis (empty otherwise).
    diagnostics: Tuple[Diagnostic, ...] = ()
    #: Leaf modules whose schedule replay was proven permutation-
    #: preserving by the reversible simulator (``verify=True`` only).
    verified: Tuple[str, ...] = ()

    @property
    def entry_profile(self) -> ModuleProfile:
        return self.profiles[self.program.entry]

    @property
    def schedule_length(self) -> int:
        """Whole-program schedule length at the machine's full width."""
        _, cost = best_dim(self.entry_profile.length, self.machine.k)
        return cost

    @property
    def runtime(self) -> int:
        """Whole-program communication-aware runtime at full width."""
        _, cost = best_dim(self.entry_profile.runtime, self.machine.k)
        return cost

    # -- the paper's headline metrics ---------------------------------

    @property
    def parallel_speedup(self) -> float:
        """Figure 6: speedup over sequential, communication-free."""
        return parallel_speedup(self.total_gates, self.schedule_length)

    @property
    def cp_speedup(self) -> float:
        """Figure 6's theoretical bound from the estimated critical
        path."""
        return parallel_speedup(self.total_gates, self.critical_path)

    @property
    def comm_aware_speedup(self) -> float:
        """Figures 7-9: speedup over the sequential naive movement
        model."""
        return comm_speedup(self.total_gates, self.runtime)

    @property
    def naive_runtime(self) -> int:
        return naive_runtime(self.total_gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompileResult({self.program.entry!r}, "
            f"{self.scheduler.algorithm}, {self.machine}, "
            f"gates={self.total_gates}, len={self.schedule_length}, "
            f"runtime={self.runtime})"
        )


def _verify_leaf(
    name: str,
    program_order,
    replay_order,
    qubits,
) -> None:
    """Replay-vs-program-order semantic gate for one leaf: bit-identical
    output on every lane or a :class:`VerificationError` carrying the
    minimal counterexample. Import is local so paper-scale compiles that
    never verify never touch the sim package."""
    from .sim.reversible import VerificationError, verify_equivalent

    report = verify_equivalent(
        program_order, replay_order, qubits, label=name
    )
    if not report.ok:
        raise VerificationError(name, report)


def _candidate_widths(k: int) -> List[int]:
    """Widths at which blackbox dimensions are computed: exhaustive for
    small k, powers of two (plus k) for large region counts."""
    if k <= 8:
        return list(range(1, k + 1))
    widths = [1]
    w = 2
    while w < k:
        widths.append(w)
        w *= 2
    widths.append(k)
    return widths


def _fill_coarse_profile(
    profile: ModuleProfile,
    mod: Module,
    profiles: Dict[str, ModuleProfile],
    widths: List[int],
) -> None:
    """Fill a non-leaf module's profile by the Section 3.2 cost policy.

    ``length`` comes from a communication-free coarse pass (gates cost
    1 cycle, calls nothing extra), ``runtime`` from a
    communication-aware one (gates cost 1 + 4, each call one teleport
    epoch); both are clamped to at least 1 cycle.
    """
    # Sorted for cross-process determinism: callees() is a set, and set
    # iteration order varies with the hash seed.
    callees = sorted(mod.callees())
    lengths = coarse_length_profile(
        mod,
        {c: profiles[c].length for c in callees},
        widths,
        gate_cost=GATE_CYCLES,
        call_overhead=0,
    )
    runtimes = coarse_length_profile(
        mod,
        {c: profiles[c].runtime for c in callees},
        widths,
        gate_cost=GATE_CYCLES + TELEPORT_CYCLES,
        call_overhead=TELEPORT_CYCLES,
    )
    for w in widths:
        profile.length[w] = max(lengths[w], 1)
        profile.runtime[w] = max(runtimes[w], 1)


def _plan(
    program: Program,
    fth: int,
    decompose: bool,
    decompose_config: Optional[DecomposeConfig],
    optimize: bool,
) -> Tuple[Program, Optional[DecomposeConfig], Dict[str, int], FlattenPlan]:
    """The front end's one decision, shared by every toolflow.

    Runs the peephole pass when ``optimize`` is set, counts each
    module's expanded gates (after decomposition when ``decompose`` is
    set) and plans which modules become leaves under ``fth``. Returns
    the (optimized) program, the decompose configuration or ``None``,
    the gate totals and the :class:`~repro.passes.stream.FlattenPlan`.
    """
    with span("toolflow:plan"):
        if optimize:
            program = optimize_program(program)[0]
        config = (decompose_config or DecomposeConfig()) if decompose else None
        if config is not None:
            totals = decomposed_gate_counts(program, config)
        else:
            totals = total_gate_counts(program)
        plan = plan_flatten(program, totals, fth)
    return program, config, totals, plan


def _front_end(
    program: Program,
    fth: int,
    decompose: bool,
    decompose_config: Optional[DecomposeConfig],
    optimize: bool,
) -> Tuple[Program, FlattenPlan, int]:
    """The program the materialized toolflows schedule.

    One pass over the plan's order builds it: each leaf's body comes
    inlined and decomposed from :func:`~repro.passes.stream.leaf_stream`,
    each other reachable module is decomposed in place. Modules that
    flattening leaves unreachable are dropped. Returns the program, the
    plan and the entry's expanded gate count.
    """
    program, config, totals, plan = _plan(
        program, fth, decompose, decompose_config, optimize
    )
    synth = config.synthesizer() if config is not None else None
    modules: List[Module] = []
    with span("toolflow:flatten"):
        for name in plan.order:
            mod = program.module(name)
            if plan.is_leaf_after(name):
                body = leaf_stream(
                    program,
                    name,
                    decompose=config is not None,
                    decompose_config=config,
                )
                mod = Module(name, mod.params, list(body))
            elif synth is not None:
                mod = decompose_module(mod, synth)
            modules.append(mod)
        flat = Program(modules, program.entry)
    return flat, plan, totals[program.entry]


def _profile_modules(
    program: Program,
    widths: List[int],
    leaf_step: Callable[[str, Module, ModuleProfile], None],
    stage: str,
) -> Dict[str, ModuleProfile]:
    """Profile every module bottom-up: ``leaf_step`` fills each leaf's
    profile, and callers are coarse-composed over their callees'
    (:func:`_fill_coarse_profile`)."""
    profiles: Dict[str, ModuleProfile] = {}
    with span(f"{stage}:schedule"):
        for name in program.topological_order():
            mod = program.module(name)
            profile = ModuleProfile(name, mod.is_leaf)
            if mod.is_leaf:
                leaf_step(name, mod, profile)
            else:
                _fill_coarse_profile(profile, mod, profiles, widths)
            profiles[name] = profile
    return profiles


def _estimate(program: Program, stage: str) -> int:
    """The (at least 1-cycle) critical path of the scheduled program."""
    with span(f"{stage}:estimate"):
        cp = hierarchical_critical_path(program)
    return max(cp[program.entry], 1)


def compile_and_schedule(
    program: Program,
    machine: MultiSIMD,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
    keep_schedules: bool = True,
    strict: bool = False,
    verify: bool = False,
) -> CompileResult:
    """Run the full toolflow on ``program`` for ``machine``.

    Args:
        program: hierarchical input program (Scaffold-level gates OK).
        machine: target Multi-SIMD(k,d) configuration; its
            ``local_memory`` setting controls the scratchpad refinement.
        scheduler: fine-grained scheduler selection (default LPFS with
            the paper's options).
        fth: flattening threshold in expanded ops (Section 3.1.1).
        decompose: lower to the QASM subset first (disable only for
            programs already expressed in primitives).
        decompose_config: rotation-synthesis configuration.
        optimize: run the peephole pass (inverse cancellation +
            rotation merging) before decomposition.
        keep_schedules: retain each leaf's full-width schedule for
            inspection (memory permitting).
        strict: run the static analyzer (:mod:`repro.analysis`)
            between passes — on the input program and again on the
            decomposed, flattened program the front end builds (its
            reachable modules only) — and audit every retained
            schedule; raise :class:`~repro.analysis.AnalysisError` on
            any ERROR-severity finding. All collected diagnostics
            (warnings included) are attached to the result's
            ``diagnostics`` field.
        verify: prove every retained full-width leaf schedule
            permutation-preserving — replay it through the bit-sliced
            reversible simulator and require bit-identical output to
            the leaf body in program order, over all inputs (small
            leaves) or a seeded sample. Requires the post-pipeline
            leaves to stay inside the classical-permutation gate subset
            (in practice: ``decompose=False``); raises
            :class:`~repro.sim.reversible.NonReversibleOpError`
            otherwise, and
            :class:`~repro.sim.reversible.VerificationError` on a
            semantic mismatch. Verified module names land on the
            result's ``verified`` field.

    Returns:
        a :class:`CompileResult`.

    Raises:
        AnalysisError: in strict mode, when analysis finds errors.
    """
    scheduler = scheduler or SchedulerConfig()
    collected = DiagnosticSet()

    def strict_gate(prog: Program, stage: str) -> None:
        with span("toolflow:analysis"):
            diags = analyze_program(prog)
        collected.extend(diags)
        if diags.has_errors:
            raise AnalysisError(diags, stage=stage)

    if strict:
        strict_gate(program, "input")

    program, plan, total_gates = _front_end(
        program, fth, decompose, decompose_config, optimize
    )
    if strict:
        strict_gate(program, "flattened")

    k, d = machine.k, machine.d
    widths = _candidate_widths(k)
    schedules: Dict[str, Schedule] = {}
    verified_names: List[str] = []

    def leaf_step(name: str, mod: Module, profile: ModuleProfile) -> None:
        dag = DependenceDAG(list(mod.body))
        for w in widths:
            sched = scheduler.schedule(dag, k=w, d=d)
            stats = derive_movement(sched, machine.with_k(w))
            profile.length[w] = max(sched.length, 1)
            profile.runtime[w] = max(stats.runtime, 1)
            profile.comm[w] = stats
            if keep_schedules and w == k:
                schedules[name] = sched
            if verify and w == k:
                from .sim.reversible import streamed_schedule_ops

                with span("toolflow:verify"):
                    _verify_leaf(
                        name,
                        mod.operations(),
                        streamed_schedule_ops(sched, sched),
                        mod.qubits(),
                    )
                verified_names.append(name)
        # Every width is done with the int-coded view; retained
        # schedules keep the DAG, not the view.
        dag.release_columns()

    profiles = _profile_modules(program, widths, leaf_step, "toolflow")

    if strict:
        with span("toolflow:analysis"):
            audit = DiagnosticSet()
            # Structural/physical audit plus the QL5xx bounds
            # sanitizer on every retained full-width schedule, fed the
            # realized movement stats so communication volume is
            # checked too.
            for name, sched in schedules.items():
                audit.extend(
                    audit_schedule(
                        sched,
                        machine,
                        module=name,
                        deep=True,
                        comm=profiles[name].comm.get(k),
                    )
                )
            # Interprocedural battery (QL4xx lifetime + QL501 fit) on
            # the scheduled (post-pass) program, then the blackbox
            # profiles of every module against the static bounds.
            deep = analyze_deep(program, machine=machine)
            audit.extend(deep.diagnostics)
            for name, profile in profiles.items():
                summary = deep.context.resources.get(name)
                if summary is None:
                    continue
                audit.extend(
                    audit_profile_bounds(
                        profile.length,
                        profile.runtime,
                        summary,
                        module=name,
                    )
                )
        collected.extend(audit)
        if audit.has_errors:
            raise AnalysisError(audit, stage="schedule")

    return CompileResult(
        program=program,
        machine=machine,
        scheduler=scheduler,
        profiles=profiles,
        schedules=schedules,
        total_gates=total_gates,
        critical_path=_estimate(program, "toolflow"),
        flattened_percent=plan.percent_flattened,
        diagnostics=tuple(collected.sorted()),
        verified=tuple(verified_names),
    )


@dataclass
class StreamedCompileResult(CompileResult):
    """A :class:`CompileResult` produced by the streaming pipeline.

    ``program`` is the input program (after the peephole pass, when
    asked) with each coarse-scheduled non-leaf module replaced by the
    decomposed body the coarse pass scheduled, as in the materialized
    result; leaf modules keep their unexpanded source, since no leaf
    body is ever materialized. ``schedules`` is
    empty; retained leaf schedules live in ``stream_schedules`` /
    ``columns`` in their compact columnar form: each is a
    :class:`~repro.sched.types.Schedule` with ``dag=None`` whose nodes
    index its leaf's :class:`~repro.sched.stream.StreamColumns`
    (export via :func:`repro.service.stream_io.write_schedule_stream`,
    render via :func:`repro.sched.report.render_timeline` with the
    columns' ``operation``). All metric
    fields and properties carry the same values the materialized
    pipeline computes — ``tests/test_stream_sched.py`` asserts profile,
    gate-count and critical-path equality per module.
    """

    window: Optional[int] = DEFAULT_WINDOW
    stream_schedules: Dict[str, Schedule] = field(default_factory=dict)
    columns: Dict[str, StreamColumns] = field(default_factory=dict)
    leaf_comm: Dict[str, CommStats] = field(default_factory=dict)


def compile_and_schedule_streamed(
    program: Program,
    machine: MultiSIMD,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
    window: Optional[int] = DEFAULT_WINDOW,
    keep_schedules: bool = True,
    widths: str = "all",
    verify: bool = False,
) -> StreamedCompileResult:
    """The streaming counterpart of :func:`compile_and_schedule`.

    Produces metric-identical results without ever materializing a
    leaf body: flattening *decisions* come from the same plan step as
    the materialized toolflow (:func:`_plan`), leaf bodies are
    spliced int-coded from per-module templates
    (:meth:`~repro.passes.stream.LeafStream.int_coded`) into columns,
    and the materialized pipeline's own scheduler kernels run over the
    columns. Peak memory is O(gates * ~50 bytes) for the columns
    instead of O(gates * ~1 KiB) for boxed ops.

    Args:
        window: the ingestion window handed to
            :func:`~repro.sched.stream.build_columns` and recorded on
            the result. It bounds boxed ops only for caller-built
            streams; a leaf stream boxes none, so here it changes
            neither the columns nor the ingest (None and every
            positive window compile identically).
        keep_schedules: retain each leaf's full-width streamed schedule
            and columns on the result (compact; needed for export and
            engine execution).
        widths: ``"all"`` profiles every candidate width like the
            materialized pipeline; ``"entry"`` profiles only the
            machine's full width ``k`` — the paper-scale mode, where
            one width already costs minutes and entry-level metrics
            are what the scale run reports.
        verify: same contract as :func:`compile_and_schedule` — each
            full-width streamed schedule is replayed through the
            reversible simulator against the leaf's op stream in
            program order, one streaming pass per side.
    """
    scheduler = scheduler or SchedulerConfig()
    program, config, totals, plan = _plan(
        program, fth, decompose, decompose_config, optimize
    )

    k, d = machine.k, machine.d
    if widths == "all":
        width_list = _candidate_widths(k)
    elif widths == "entry":
        width_list = [k]
    else:
        raise ValueError(f"widths must be 'all' or 'entry', got {widths!r}")

    synth = config.synthesizer() if config is not None else None
    profiles: Dict[str, ModuleProfile] = {}
    decomposed: Dict[str, Module] = {}
    stream_schedules: Dict[str, Schedule] = {}
    columns: Dict[str, StreamColumns] = {}
    leaf_comm: Dict[str, CommStats] = {}
    cp: Dict[str, int] = {}
    verified_names: List[str] = []

    with span("toolflow:stream-schedule"):
        for name in plan.order:
            if plan.is_leaf_after(name):
                profile = ModuleProfile(name, True)
                stream = leaf_stream(
                    program,
                    name,
                    decompose=config is not None,
                    decompose_config=config,
                    length_hint=totals[name],
                )
                cols = build_columns(stream, window=window)
                cp[name] = cols.critical_path_length()
                for w in width_list:
                    ssched = schedule_columns(
                        cols,
                        scheduler.algorithm,
                        w,
                        d,
                        lpfs_l=scheduler.lpfs_l,
                        lpfs_simd=scheduler.lpfs_simd,
                        lpfs_refill=scheduler.lpfs_refill,
                    )
                    stats = derive_movement_stream(
                        cols, ssched, machine.with_k(w)
                    )
                    profile.length[w] = max(ssched.length, 1)
                    profile.runtime[w] = max(stats.runtime, 1)
                    profile.comm[w] = stats
                    if keep_schedules and w == k:
                        stream_schedules[name] = ssched
                        leaf_comm[name] = stats
                    if verify and w == k:
                        from .sim.reversible import streamed_schedule_ops

                        with span("toolflow:verify"):
                            _verify_leaf(
                                name,
                                iter(stream),
                                streamed_schedule_ops(cols, ssched),
                                cols.qubits,
                            )
                        verified_names.append(name)
                cols.release_graph()
                if keep_schedules:
                    columns[name] = cols
            else:
                profile = ModuleProfile(name, False)
                mod = program.module(name)
                if synth is not None:
                    mod = decomposed[name] = decompose_module(mod, synth)
                _fill_coarse_profile(profile, mod, profiles, width_list)
                cp[name] = module_critical_path(mod.body, cp)
            profiles[name] = profile

    return StreamedCompileResult(
        program=program.with_modules(decomposed),
        machine=machine,
        scheduler=scheduler,
        profiles=profiles,
        schedules={},
        total_gates=totals[program.entry],
        critical_path=max(cp[program.entry], 1),
        flattened_percent=plan.percent_flattened,
        window=window,
        stream_schedules=stream_schedules,
        columns=columns,
        leaf_comm=leaf_comm,
        verified=tuple(verified_names),
    )
