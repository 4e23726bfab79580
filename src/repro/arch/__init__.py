"""Architectural model: the Multi-SIMD(k,d) machine, memory hierarchy,
teleportation cost accounting, static EPR pre-distribution planning,
and the distributed-global-memory (NUMA) extension."""

from .epr_schedule import (
    EPRDemand,
    EPRPlan,
    epr_demand_timeline,
    plan_epr_distribution,
)
from .machine import (
    GATE_CYCLES,
    LOCAL_MOVE_CYCLES,
    MultiSIMD,
    NAIVE_FACTOR,
    TELEPORT_CYCLES,
    epoch_cycles,
    loc_label,
    split_epoch,
    split_machine,
)
from .numa import (
    NUMAConfig,
    NUMAStats,
    assign_banks,
    epoch_teleport_loads,
    numa_runtime,
    serialize_rounds,
)
from .qecc import (
    ConcatenatedCode,
    LeverageReport,
    QECCRequirement,
    qecc_requirement,
    speedup_leverage,
)
from .teleport import EPRAccounting, teleportation_ops

__all__ = [
    "EPRAccounting",
    "EPRDemand",
    "EPRPlan",
    "GATE_CYCLES",
    "LOCAL_MOVE_CYCLES",
    "MultiSIMD",
    "NAIVE_FACTOR",
    "NUMAConfig",
    "NUMAStats",
    "ConcatenatedCode",
    "LeverageReport",
    "QECCRequirement",
    "TELEPORT_CYCLES",
    "assign_banks",
    "epoch_cycles",
    "epoch_teleport_loads",
    "epr_demand_timeline",
    "loc_label",
    "numa_runtime",
    "plan_epr_distribution",
    "serialize_rounds",
    "split_epoch",
    "split_machine",
    "qecc_requirement",
    "speedup_leverage",
    "teleportation_ops",
]
