"""Deep (interprocedural) analysis orchestration — ``lint --deep``.

Ties the pieces together:

1. run the :mod:`.dataflow` fixpoint engine bottom-up over the call
   graph for each registered interprocedural analysis (qubit lifetime,
   resource bounds);
2. package the summary tables into a :class:`DeepContext`;
3. run the registered deep-rule battery
   (:func:`~repro.analysis.registry.analyze_deep_rules`) over the
   context to produce diagnostics.

Summaries are pure facts about modules; diagnostics are emitted only
by the rule battery in step 3.

Every stage is timed under ``analysis:*`` spans
(:mod:`repro.instrument`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..arch.machine import MultiSIMD
from ..core.module import Program
from ..instrument import span
from .dataflow import FixpointResult, solve_bottom_up
from .diagnostics import DiagnosticSet
from .lifetime_rules import (
    LifetimeAnalysis,
    LifetimeEvent,
    LifetimeSummary,
    emit_lifetime_events,
)
from .registry import analyze_deep_rules
from .resource_rules import ResourceAnalysis, ResourceSummary

__all__ = ["DeepContext", "DeepAnalysis", "analyze_deep", "DEFAULT_MACHINE"]

#: Machine assumed when the caller doesn't name one — the paper's
#: headline Multi-SIMD(4, 4) configuration.
DEFAULT_MACHINE = MultiSIMD(k=4, d=4)


@dataclass
class DeepContext:
    """Everything a deep rule may consult.

    Deep rules receive this object and *read* it; they never recompute
    fixpoints. The interprocedural event replay (the expensive part of
    the lifetime rules) is computed lazily and shared across the four
    ``QL4xx`` rules.
    """

    program: Program
    machine: MultiSIMD
    lifetime: Dict[str, LifetimeSummary]
    resources: Dict[str, ResourceSummary]
    _events: Optional[List[LifetimeEvent]] = field(
        default=None, repr=False
    )

    def lifetime_events(self) -> List[LifetimeEvent]:
        """Interprocedural lifetime events (cached replay)."""
        if self._events is None:
            self._events = emit_lifetime_events(
                self.program, self.lifetime
            )
        return self._events


@dataclass
class DeepAnalysis:
    """Result bundle of :func:`analyze_deep`.

    Attributes:
        diagnostics: combined findings of the deep-rule battery.
        context: the summary-laden context the rules consumed.
        lifetime_result: fixpoint result (order, iterations) of the
            qubit-lifetime analysis.
        resource_result: fixpoint result of the resource-bounds
            analysis.
    """

    diagnostics: DiagnosticSet
    context: DeepContext
    lifetime_result: FixpointResult[LifetimeSummary]
    resource_result: FixpointResult[ResourceSummary]


def analyze_deep(
    program: Program,
    machine: Optional[MultiSIMD] = None,
    codes: Optional[Iterable[str]] = None,
) -> DeepAnalysis:
    """Run the full interprocedural battery over ``program``.

    Args:
        program: a validated program.
        machine: target machine for the resource-fit rules (default:
            :data:`DEFAULT_MACHINE`).
        codes: restrict emission to these deep-rule codes
            (default: all registered deep rules).

    Returns:
        a :class:`DeepAnalysis` with diagnostics, context and
        fixpoint metadata.
    """
    target = machine if machine is not None else DEFAULT_MACHINE
    with span("analysis:lifetime"):
        lifetime_result = solve_bottom_up(program, LifetimeAnalysis())
    with span("analysis:resource"):
        resource_result = solve_bottom_up(program, ResourceAnalysis())
    context = DeepContext(
        program=program,
        machine=target,
        lifetime=dict(lifetime_result.summaries),
        resources=dict(resource_result.summaries),
    )
    with span("analysis:deep-rules"):
        diagnostics = analyze_deep_rules(context, codes=codes)
    return DeepAnalysis(
        diagnostics=diagnostics,
        context=context,
        lifetime_result=lifetime_result,
        resource_result=resource_result,
    )
