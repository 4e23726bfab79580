"""Multi-core Multi-SIMD: topology, partitioning, makespan, execution.

The single-core toolchain models one Multi-SIMD(k,d) chip. This
package lifts it one level: several such cores joined by an EPR-pair
teleport interconnect (:mod:`~repro.multicore.topology`), a
qubit-to-core partitioner minimizing the weighted interaction cut
(:mod:`~repro.multicore.partition`), an inter-core makespan scheduler
layered on the existing leaf schedulers
(:mod:`~repro.multicore.makespan`), a leaf step for
:func:`repro.toolflow.compile_and_schedule`'s own hierarchy walk
(:mod:`~repro.multicore.toolflow`), and a leaf runner for the
engine's, extending its ``realized == analytic + stalls`` invariant
across the interconnect (:mod:`~repro.multicore.execute`).

With one core — any topology — the whole stack is bit-identical to the
single-core pipeline; it is a strict generalization, not a fork.
"""

from .audit import audit_multicore_bounds
from .execute import (
    MulticoreEngineResult,
    MulticoreExecution,
    MulticoreStalls,
    execute_multicore_result,
    run_multicore_schedule,
)
from .makespan import (
    IntercoreEpoch,
    IntercoreTransfer,
    MulticoreSchedule,
    schedule_multicore,
    statement_cores,
)
from .partition import (
    PartitionError,
    PartitionReport,
    interaction_graph,
    partition_qubits,
)
from .toolflow import (
    MulticoreCompileResult,
    MulticoreConfig,
    compile_and_schedule_multicore,
)
from .topology import (
    TOPOLOGIES,
    TOPOLOGY_SCHEMA,
    CoreGraph,
    TopologyError,
    parse_topology,
)

__all__ = [
    "TOPOLOGY_SCHEMA",
    "TOPOLOGIES",
    "TopologyError",
    "CoreGraph",
    "parse_topology",
    "PartitionError",
    "PartitionReport",
    "interaction_graph",
    "partition_qubits",
    "IntercoreTransfer",
    "IntercoreEpoch",
    "MulticoreSchedule",
    "statement_cores",
    "schedule_multicore",
    "MulticoreConfig",
    "MulticoreCompileResult",
    "compile_and_schedule_multicore",
    "MulticoreStalls",
    "MulticoreEngineResult",
    "MulticoreExecution",
    "run_multicore_schedule",
    "execute_multicore_result",
    "audit_multicore_bounds",
]
