"""Schedule-level static auditing (codes ``QL2xx``/``QL3xx``).

The scheduler stack historically validated lazily and fatally:
``Schedule.validate()`` raised on the first structural violation and
``replay_schedule`` raised mid-replay on the first physical one. The
auditor runs the same checks through the diagnostics engine and
collects *all* violations, so a schedule — hand-built, externally
modified, or produced by a buggy planner — can be examined post-hoc
with the same error-code vocabulary the program linter uses.

``QL2xx`` diagnostics are structural (every op exactly once, deps
ordered, region/width caps, SIMD gate-type purity, intra-timestep qubit
reuse); ``QL3xx`` are physical (operand residency, move consistency,
ballistic endpoints, scratchpad capacity, passive storage, machine
shape). All are ERROR severity: a schedule that trips any of them is
not executable on the machine model.
"""

from __future__ import annotations

from typing import Optional

from ..arch.machine import MultiSIMD
from ..sched.comm import CommStats
from ..sched.types import Schedule
from ..sched.replay import replay_schedule
from .diagnostics import Diagnostic, DiagnosticSet, Severity

__all__ = ["audit_schedule", "audit_replay"]


def audit_schedule(
    sched: Schedule,
    machine: Optional[MultiSIMD] = None,
    module: Optional[str] = None,
    deep: bool = False,
    comm: Optional[CommStats] = None,
    hop_floor: int = 1,
) -> DiagnosticSet:
    """Statically audit a schedule, collecting every violation.

    Args:
        sched: the schedule to audit.
        machine: when given, the movement plan is additionally
            replayed against this machine model (``QL3xx`` checks).
        module: module name to anchor the diagnostics to (reports).
        deep: additionally sanitize the schedule against its static
            resource/communication bounds (``QL5xx`` checks —
            :func:`~repro.analysis.resource_rules.audit_schedule_bounds`).
        comm: realized communication stats for the ``deep`` check,
            when available.
        hop_floor: topology-aware ``QL503`` floor scaling for the
            ``deep`` check (see ``audit_schedule_bounds``).

    Returns:
        a :class:`DiagnosticSet`; empty iff the schedule passes every
        structural (and, with ``machine``, physical; and, with
        ``deep``, bounds) invariant.

    Raises:
        TypeError: ``sched`` is columnar (``dag`` is ``None``).
    """
    diags = DiagnosticSet()
    for v in sched.iter_violations():
        diags.add(
            Diagnostic(
                code=v.code,
                severity=Severity.ERROR,
                message=v.message,
                module=module,
                stmt=v.timestep,
                rule="schedule-invariants",
            )
        )
    if machine is not None:
        diags.extend(audit_replay(sched, machine, module=module))
    if deep:
        from .resource_rules import audit_schedule_bounds

        diags.extend(
            audit_schedule_bounds(
                sched, comm=comm, module=module, hop_floor=hop_floor
            )
        )
    return diags


def audit_replay(
    sched: Schedule,
    machine: MultiSIMD,
    module: Optional[str] = None,
) -> DiagnosticSet:
    """Replay a movement-annotated schedule, collecting every physical
    violation instead of aborting on the first.

    Returns:
        a :class:`DiagnosticSet` of ``QL3xx`` diagnostics; empty iff
        the plan is physically realisable on ``machine``.
    """
    diags = DiagnosticSet()

    def collect(code: str, message: str, timestep: int) -> None:
        diags.add(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=message,
                module=module,
                stmt=timestep if timestep >= 0 else None,
                rule="replay-invariants",
            )
        )

    replay_schedule(sched, machine, on_violation=collect)
    return diags
