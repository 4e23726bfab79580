"""Content-addressed fingerprints for compile requests.

A *compile request* — ``(Program, MultiSIMD, SchedulerConfig, FTh,
decomposition settings, pipeline version)`` — is reduced to a canonical
JSON document and hashed with SHA-256. Two requests that would produce
the same :class:`~repro.toolflow.CompileResult` fingerprint identically,
and the fingerprint is stable across processes, interpreter hash seeds,
and module insertion orders.

The program/statement canonicalisation rules (and
:data:`PIPELINE_VERSION`, which is mixed in so that behavioural changes
to passes/schedulers invalidate previously stored artifacts) live in
:mod:`repro.core.canonical` — shared with the analysis summary cache —
and are re-exported here; this module adds the request-level pieces:
machine, scheduler, and decomposition configuration.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..arch.machine import MultiSIMD
from ..core.canonical import (
    PIPELINE_VERSION,
    canonical_number as _num,
    canonical_program,
    digest as _digest,
    fingerprint_program,
)
from ..core.module import Program
from ..passes.decompose import DecomposeConfig
from ..passes.flatten import DEFAULT_FTH
from ..toolflow import SchedulerConfig

__all__ = [
    "PIPELINE_VERSION",
    "canonical_program",
    "canonical_machine",
    "canonical_scheduler",
    "canonical_request",
    "fingerprint_request",
    "fingerprint_program",
]


def canonical_machine(machine: MultiSIMD) -> Dict[str, Any]:
    return {
        "k": machine.k,
        "d": machine.d,
        "local_memory": _num(machine.local_memory),
    }


def canonical_scheduler(scheduler: SchedulerConfig) -> Dict[str, Any]:
    return {
        "algorithm": scheduler.algorithm,
        "lpfs_l": scheduler.lpfs_l,
        "lpfs_simd": scheduler.lpfs_simd,
        "lpfs_refill": scheduler.lpfs_refill,
    }


def _canonical_decompose(config: Optional[DecomposeConfig]) -> Dict[str, Any]:
    config = config or DecomposeConfig()
    return {
        "epsilon": _num(config.epsilon),
        "length_scale": _num(config.length_scale),
        "length_offset": config.length_offset,
    }


def canonical_request(
    program: Program,
    machine: MultiSIMD,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
    strict: bool = False,
) -> Dict[str, Any]:
    """Canonical form of a full compile request (pre-hash)."""
    return {
        "pipeline": PIPELINE_VERSION,
        "program": canonical_program(program),
        "machine": canonical_machine(machine),
        "scheduler": canonical_scheduler(scheduler or SchedulerConfig()),
        "fth": fth,
        "decompose": decompose,
        "decompose_config": _canonical_decompose(decompose_config),
        "optimize": optimize,
        "strict": strict,
    }


def fingerprint_request(
    program: Program,
    machine: MultiSIMD,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
    strict: bool = False,
) -> str:
    """SHA-256 hex fingerprint of a full compile request."""
    return _digest(
        canonical_request(
            program,
            machine,
            scheduler,
            fth=fth,
            decompose=decompose,
            decompose_config=decompose_config,
            optimize=optimize,
            strict=strict,
        )
    )
