"""Static resource/communication bounds (codes ``QL501``-``QL504``).

A bottom-up resource analysis (through the :mod:`.dataflow` engine)
derives, per module, machine-independent bounds the paper's whole
argument rests on being able to know at compile time:

* ``ops`` — the iteration-weighted operation count (exact);
* ``op_footprint`` — distinct qubits touched by direct operations
  (for a leaf, exactly the qubits its schedule must move in from
  global memory);
* ``width_ub`` — an upper bound on achievable SIMD width: no timestep
  can run more concurrent regions than there are operations or
  qubit-disjoint operands (``QL205``), at any point of the hierarchy;
* ``chain`` / ``param_chains`` — per-qubit serialisation lower bounds:
  every operation acting on one physical qubit occupies a distinct
  timestep, and the counts compose across calls through the positional
  parameter binding (iterated calls multiply the per-parameter
  counts — the same physical qubit serialises every repetition);
* ``comm_lb`` — a communication-volume lower bound per frame: every
  qubit starts in global memory, so a leaf's execution teleports at
  least its footprint (one EPR pair per teleport).

The bounds feed three consumers:

* ``QL501`` (deep rule) — machine fit: the program's width upper
  bound is below the machine's ``k``, so regions can never all be
  occupied (overprovisioned machine / width infeasibility);
* :func:`audit_schedule_bounds` — the **schedule sanitizer**: a
  realized schedule whose width exceeds the proven bound (``QL502``),
  whose communication volume undercuts the static lower bound
  (``QL503``), or whose length beats the serialisation bound
  (``QL504``) is wrong — some invariant of the machine model or the
  scheduler has been violated;
* :func:`audit_profile_bounds` — the same check against coarse
  (blackbox) profiles of non-leaf modules, where no explicit schedule
  exists.

Soundness notes: bounds never *shrink* under the front-end passes —
decomposition only adds operations on the same operands and flattening
only inlines — so bounds computed on the input program are valid
lower bounds for schedules of the decomposed/flattened one. Width and
ops bounds are upper bounds and may overcount (safe: ``QL501`` then
under-warns, never over-fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..arch.machine import TELEPORT_CYCLES
from ..core.module import Module
from ..core.operation import Operation
from ..core.qubits import Qubit
from ..sched.comm import CommStats
from ..sched.types import Schedule
from .diagnostics import Diagnostic, DiagnosticSet, Severity
from .registry import Reporter, deep_rule

__all__ = [
    "ResourceSummary",
    "ResourceAnalysis",
    "audit_schedule_bounds",
    "audit_profile_bounds",
]


@dataclass(frozen=True)
class ResourceSummary:
    """Static resource bounds of one module (callees folded in).

    Attributes:
        params: number of formal parameters.
        ops: iteration-weighted operation count (exact).
        frame_qubits: distinct qubits named in this frame (params and
            locals).
        op_footprint: distinct qubits touched by *direct* operations;
            for a leaf this is exactly the set a schedule teleports in
            from global memory (communication lower bound).
        inline_qubits: upper bound on distinct qubits under maximal
            inlining (callee locals counted fresh per call instance).
        width_ub: upper bound on achievable SIMD width,
            ``min(ops, inline_qubits)``.
        chain: lower bound on any schedule length for this module:
            the busiest single qubit's serialised operation count,
            composed through calls.
        param_chains: per-parameter serialised operation counts
            (the compositional ingredient of ``chain``).
        comm_lb: lower bound on teleports for this frame's execution
            (exact for leaves: ``op_footprint``).
    """

    params: int
    ops: int
    frame_qubits: int
    op_footprint: int
    inline_qubits: int
    width_ub: int
    chain: int
    param_chains: Tuple[int, ...]
    comm_lb: int


class ResourceAnalysis:
    """The resource-bounds summary computation, engine-shaped (see
    :class:`~repro.analysis.dataflow.InterproceduralAnalysis`)."""

    def summarize(
        self,
        module: Module,
        callees: Mapping[str, ResourceSummary],
    ) -> ResourceSummary:
        ops = 0
        inline_extra = 0
        callee_chain = 0
        callee_comm = 0
        counts: Dict[Qubit, int] = {}
        direct: Dict[Qubit, None] = {}
        for stmt in module.body:
            if isinstance(stmt, Operation):
                ops += 1
                for q in stmt.qubits:
                    counts[q] = counts.get(q, 0) + 1
                    direct.setdefault(q)
            else:
                callee = callees[stmt.callee]
                ops += stmt.iterations * callee.ops
                inline_extra += stmt.iterations * max(
                    0, callee.inline_qubits - callee.params
                )
                callee_chain = max(callee_chain, callee.chain)
                callee_comm = max(callee_comm, callee.comm_lb)
                for pos, q in enumerate(stmt.args):
                    counts[q] = (
                        counts.get(q, 0)
                        + stmt.iterations * callee.param_chains[pos]
                    )
        frame_qubits = len(module.qubits())
        op_footprint = len(direct)
        inline_qubits = frame_qubits + inline_extra
        chain = max(
            max(counts.values(), default=0),
            callee_chain,
        )
        return ResourceSummary(
            params=len(module.params),
            ops=ops,
            frame_qubits=frame_qubits,
            op_footprint=op_footprint,
            inline_qubits=inline_qubits,
            width_ub=min(ops, inline_qubits),
            chain=chain,
            param_chains=tuple(
                counts.get(q, 0) for q in module.params
            ),
            comm_lb=max(op_footprint, callee_comm),
        )


# ---------------------------------------------------------------------------
# QL501 — machine fit (deep rule)
# ---------------------------------------------------------------------------


@deep_rule(
    "QL501",
    "width-overprovision",
    Severity.WARNING,
    "The program's statically-proven width upper bound is below the "
    "machine's region count: some SIMD regions can never be occupied.",
)
def check_width_fit(context: Any, out: Reporter) -> None:
    entry = context.program.entry
    summary = context.resources.get(entry)
    if summary is None or summary.ops == 0:
        return
    if summary.width_ub < context.machine.k:
        out.emit(
            f"program {entry!r} can occupy at most "
            f"{summary.width_ub} of the machine's {context.machine.k} "
            f"SIMD regions in any timestep "
            f"(ops={summary.ops}, qubit bound="
            f"{summary.inline_qubits}): the target Multi-SIMD("
            f"{context.machine.k}, {context.machine.d}) is "
            f"overprovisioned for this program",
            module=entry,
        )


# ---------------------------------------------------------------------------
# The schedule sanitizer (QL502-QL504)
# ---------------------------------------------------------------------------


def _bounds_diag(
    code: str,
    message: str,
    module: Optional[str],
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        module=module,
        rule="schedule-bounds",
    )


def audit_schedule_bounds(
    sched: Schedule,
    comm: Optional[CommStats] = None,
    module: Optional[str] = None,
    hop_floor: int = 1,
) -> DiagnosticSet:
    """Check a realized leaf schedule against its static bounds.

    The bounds are recomputed from the schedule's own dependence DAG
    (the ground truth of what was scheduled), so the check is exact —
    independent of summaries, flattening, or decomposition:

    * ``QL502`` — realized ``max_width`` exceeds
      ``min(k, footprint, ops)``: physically impossible under the
      qubit-disjointness invariant, so the width profile is lying;
    * ``QL503`` — realized communication undercuts the static lower
      bound: fewer teleports (or EPR pairs, or comm cycles) than the
      footprint demands, though every qubit starts in global memory;
    * ``QL504`` — realized length beats the serialisation bound (the
      busiest qubit's chain, and the ``ceil(ops / (k*d))`` capacity
      bound when ``d`` is finite).

    Args:
        sched: the schedule to audit.
        comm: realized communication stats for this schedule, when
            available (:func:`~repro.sched.comm.derive_movement`
            output). Without it, move counts embedded in the schedule
            are used; if the schedule carries no movement plan at all,
            communication checks are skipped (nothing realized to
            compare yet).
        module: module name to anchor diagnostics to.
        hop_floor: topology-aware scaling of the ``QL503``
            communication-cycle floor. In a multi-core machine a
            teleport whose nearest route crosses ``h`` interconnect
            links costs ``h`` link-level epochs, so a caller that
            knows every teleport must cross at least ``hop_floor``
            links owes at least ``TELEPORT_CYCLES * hop_floor``
            communication cycles. The single-core default is 1.

    Raises:
        ValueError: ``hop_floor`` < 1.
        TypeError: ``sched`` is columnar (``dag`` is ``None``).
    """
    if hop_floor < 1:
        raise ValueError(f"hop_floor must be >= 1, got {hop_floor}")
    diags = DiagnosticSet()
    dag = sched.require_dag()
    ops = dag.n
    if ops == 0:
        return diags
    chains = dag.qubit_chains()
    footprint = len(chains)
    chain = max((len(c) for c in chains.values()), default=0)

    width_bound = min(sched.k, footprint, ops)
    if sched.max_width > width_bound:
        diags.add(
            _bounds_diag(
                "QL502",
                f"schedule max width {sched.max_width} exceeds the "
                f"static bound {width_bound} "
                f"(k={sched.k}, footprint={footprint}, ops={ops}): "
                f"width profile is inconsistent with qubit "
                f"disjointness",
                module,
            )
        )

    length_bound = chain
    if sched.d is not None:
        capacity = sched.k * sched.d
        length_bound = max(
            length_bound, -(-ops // capacity)  # ceil division
        )
    if sched.length < length_bound:
        diags.add(
            _bounds_diag(
                "QL504",
                f"schedule length {sched.length} beats the static "
                f"lower bound {length_bound} "
                f"(busiest-qubit chain {chain}, ops={ops}, "
                f"k={sched.k}, d={sched.d}): operations on one qubit "
                f"cannot overlap",
                module,
            )
        )

    movement_known = comm is not None or sched.total_moves > 0
    if movement_known:
        teleports = comm.teleports if comm is not None else sched.teleport_moves
        if teleports < footprint:
            diags.add(
                _bounds_diag(
                    "QL503",
                    f"schedule realizes {teleports} teleport(s) but "
                    f"touches {footprint} qubit(s), all of which "
                    f"start in global memory: communication is "
                    f"undercounted",
                    module,
                )
            )
        if comm is not None:
            if comm.epr.total_pairs < footprint:
                diags.add(
                    _bounds_diag(
                        "QL503",
                        f"EPR accounting claims "
                        f"{comm.epr.total_pairs} pair(s) for a "
                        f"footprint of {footprint} qubit(s): each "
                        f"inbound teleport consumes one pair",
                        module,
                    )
                )
            cycle_floor = TELEPORT_CYCLES * hop_floor
            if comm.comm_cycles < cycle_floor:
                hops = (
                    ""
                    if hop_floor == 1
                    else f" crossing {hop_floor} link(s)"
                )
                diags.add(
                    _bounds_diag(
                        "QL503",
                        f"communication-aware runtime adds only "
                        f"{comm.comm_cycles} cycle(s), below the "
                        f"{cycle_floor}-cycle cost of the first "
                        f"teleport epoch{hops}",
                        module,
                    )
                )
    return diags


def audit_profile_bounds(
    lengths: Mapping[int, int],
    runtimes: Mapping[int, int],
    summary: ResourceSummary,
    module: Optional[str] = None,
) -> DiagnosticSet:
    """Check a module's blackbox dimensions against its static bounds.

    For non-leaf (coarse-scheduled) modules no explicit schedule
    exists; the per-width length/runtime profiles are the realized
    artifact. At every width, length must respect the serialisation
    chain (``QL504``) and the communication-aware runtime must
    additionally pay for at least one teleport epoch whenever the
    module touches any qubit (``QL503``).
    """
    diags = DiagnosticSet()
    if summary.ops == 0:
        return diags
    for width in sorted(lengths):
        if lengths[width] < summary.chain:
            diags.add(
                _bounds_diag(
                    "QL504",
                    f"profile length {lengths[width]} at width "
                    f"{width} beats the serialisation lower bound "
                    f"{summary.chain}",
                    module,
                )
            )
    runtime_bound = summary.chain
    if summary.comm_lb > 0 and summary.chain > 0:
        runtime_bound += TELEPORT_CYCLES
    for width in sorted(runtimes):
        if runtimes[width] < runtime_bound:
            diags.add(
                _bounds_diag(
                    "QL503",
                    f"profile runtime {runtimes[width]} at width "
                    f"{width} beats the communication-aware lower "
                    f"bound {runtime_bound} (chain {summary.chain} + "
                    f"first teleport epoch)",
                    module,
                )
            )
    return diags
