"""repro: reproduction of "Compiler Management of Communication and
Parallelism for Quantum Computation" (ASPLOS 2015).

The package implements the paper's Multi-SIMD(k,d) architectural model,
the ScaffCC-style compilation toolflow (decomposition, CTQG reversible
arithmetic, threshold flattening, resource estimation), the RCP and LPFS
fine-grained schedulers, hierarchical coarse-grained scheduling with
flexible blackbox dimensions, communication derivation with teleport /
local-memory cost accounting, the paper's eight benchmarks, and a small
statevector simulator used to verify the substrates.

Quickstart::

    from repro import (
        ProgramBuilder, MultiSIMD, compile_and_schedule, SchedulerConfig,
    )

    pb = ProgramBuilder()
    main = pb.module("main")
    q = main.register("q", 5)
    main.toffoli(q[0], q[1], q[2]).toffoli(q[0], q[3], q[4])
    result = compile_and_schedule(
        pb.build("main"), MultiSIMD(k=2), SchedulerConfig("lpfs"),
    )
    print(result.schedule_length, result.parallel_speedup)
"""

from .analysis import (
    AnalysisError,
    Diagnostic,
    DiagnosticSet,
    Severity,
    analyze_program,
    audit_replay,
    audit_schedule,
    lint_qasm_source,
    lint_scaffold_source,
    registered_rules,
)
from .arch import (
    EPRAccounting,
    EPRPlan,
    NUMAConfig,
    NUMAStats,
    numa_runtime,
    plan_epr_distribution,
    GATE_CYCLES,
    LOCAL_MOVE_CYCLES,
    MultiSIMD,
    NAIVE_FACTOR,
    TELEPORT_CYCLES,
    teleportation_ops,
)
from .core import (
    AncillaAllocator,
    emit_qasm,
    parse_qasm,
    parse_scaffold,
    CallSite,
    DependenceDAG,
    Module,
    ModuleBuilder,
    Operation,
    Program,
    ProgramBuilder,
    ProgramValidationError,
    Qubit,
    QubitRegister,
)
from .passes import (
    DecomposeConfig,
    RotationSynthesizer,
    decompose_program,
    estimate_resources,
    flatten_program,
    gate_count_histogram,
    minimum_qubits,
    total_gate_counts,
)
from .sched import (
    CommStats,
    render_timeline,
    replay_schedule,
    Schedule,
    comm_speedup,
    derive_movement,
    hierarchical_critical_path,
    naive_runtime,
    parallel_speedup,
    coarse_length_profile,
    schedule_coarse,
    schedule_lpfs,
    schedule_rcp,
    schedule_sequential,
)
from .instrument import SpanRecorder, record_spans, span
from .toolflow import (
    CompileResult,
    ModuleProfile,
    SchedulerConfig,
    compile_and_schedule,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AncillaAllocator",
    "CallSite",
    "CommStats",
    "CompileResult",
    "DecomposeConfig",
    "DependenceDAG",
    "Diagnostic",
    "DiagnosticSet",
    "EPRAccounting",
    "EPRPlan",
    "GATE_CYCLES",
    "LOCAL_MOVE_CYCLES",
    "Module",
    "ModuleBuilder",
    "ModuleProfile",
    "MultiSIMD",
    "NAIVE_FACTOR",
    "NUMAConfig",
    "NUMAStats",
    "Operation",
    "Program",
    "ProgramBuilder",
    "ProgramValidationError",
    "Qubit",
    "QubitRegister",
    "RotationSynthesizer",
    "Schedule",
    "SchedulerConfig",
    "Severity",
    "SpanRecorder",
    "TELEPORT_CYCLES",
    "analyze_program",
    "audit_replay",
    "audit_schedule",
    "comm_speedup",
    "emit_qasm",
    "numa_runtime",
    "parse_qasm",
    "parse_scaffold",
    "plan_epr_distribution",
    "render_timeline",
    "replay_schedule",
    "compile_and_schedule",
    "decompose_program",
    "derive_movement",
    "estimate_resources",
    "flatten_program",
    "gate_count_histogram",
    "hierarchical_critical_path",
    "lint_qasm_source",
    "lint_scaffold_source",
    "minimum_qubits",
    "registered_rules",
    "naive_runtime",
    "parallel_speedup",
    "record_spans",
    "coarse_length_profile",
    "schedule_coarse",
    "schedule_lpfs",
    "schedule_rcp",
    "schedule_sequential",
    "span",
    "teleportation_ops",
    "total_gate_counts",
    "__version__",
]
