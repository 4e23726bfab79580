"""Compiler passes: decomposition, CTQG arithmetic, flattening, resource
and qubit-count estimation."""

from . import ctqg
from .decompose import (
    DecomposeConfig,
    RotationSynthesizer,
    decompose_module,
    decompose_operation,
    decompose_program,
    toffoli_network,
)
from .flatten import (
    DEFAULT_FTH,
    FlattenResult,
    flatten_program,
    fully_flatten,
)
from .optimize import OptimizeStats, optimize_module, optimize_program
from .qubit_count import local_footprints, minimum_qubits
from .stream import (
    FlattenPlan,
    decomposed_gate_counts,
    leaf_stream,
    plan_flatten,
    stream_decompose,
    stream_flatten,
)
from .resource import (
    GATE_COUNT_BINS,
    ResourceEstimate,
    estimate_resources,
    gate_count_histogram,
    module_invocation_counts,
    total_gate_counts,
)

__all__ = [
    "DEFAULT_FTH",
    "DecomposeConfig",
    "FlattenPlan",
    "FlattenResult",
    "GATE_COUNT_BINS",
    "ResourceEstimate",
    "RotationSynthesizer",
    "ctqg",
    "decompose_module",
    "decompose_operation",
    "decompose_program",
    "estimate_resources",
    "flatten_program",
    "fully_flatten",
    "gate_count_histogram",
    "local_footprints",
    "minimum_qubits",
    "module_invocation_counts",
    "OptimizeStats",
    "optimize_module",
    "optimize_program",
    "toffoli_network",
    "total_gate_counts",
    "decomposed_gate_counts",
    "leaf_stream",
    "plan_flatten",
    "stream_decompose",
    "stream_flatten",
]
