"""Leaf-module flattening under a gate-count threshold (Section 3.1.1).

Hierarchical scheduling loses parallelism at module boundaries (the
paper's Figure 4: two dependent Toffolis cost 24 cycles as blackboxes but
21 when conjoined and fine-scheduled). The fix is to *flatten* modules
whose expanded gate count falls below a Flattening Threshold (FTh): all
their calls are inlined, producing larger leaf modules for fine-grained
scheduling. The paper uses FTh = 2M ops (3M for SHA-1), flattening >= 80%
of modules in every benchmark.

The threshold decision is :func:`~repro.passes.stream.plan_flatten`'s,
and each flattened body is :func:`~repro.passes.stream.stream_flatten`'s
expansion, the inliner every toolflow uses.
"""

from __future__ import annotations

from ..core.module import Module, Program
from .resource import total_gate_counts
from .stream import FlattenPlan, plan_flatten, stream_flatten

__all__ = ["FlattenResult", "flatten_program", "fully_flatten"]

#: The paper's default flattening threshold (2 million operations).
DEFAULT_FTH = 2_000_000


class FlattenResult:
    """Outcome of a flattening run.

    Attributes:
        program: the rewritten program.
        flattened: names of modules that were flattened into leaves.
        percent_flattened: share of reachable modules flattened or
            already leaves (the quantity Figure 5's caption reports).
    """

    def __init__(self, program: Program, plan: FlattenPlan):
        self.program = program
        self.flattened = plan.flattened
        self.percent_flattened = plan.percent_flattened

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlattenResult({len(self.flattened)} flattened, "
            f"{self.percent_flattened:.0f}% leaves)"
        )


def flatten_program(
    program: Program, fth: int = DEFAULT_FTH
) -> FlattenResult:
    """Flatten every module whose expanded gate count is below ``fth``.

    Each flattened module's body is its whole call tree inlined: formal
    parameters become the actual arguments, callee locals get a
    ``"{callee}@{idx}$"`` instance prefix per call site, and an iterated
    call repeats the identically-renamed body. Every module is kept,
    including callees that flattening leaves unreachable.
    """
    plan = plan_flatten(program, total_gate_counts(program), fth)
    return FlattenResult(
        program.with_modules(
            {
                name: Module(
                    name,
                    program.module(name).params,
                    list(stream_flatten(program, name)),
                )
                for name in plan.flattened
            }
        ),
        plan,
    )


def fully_flatten(program: Program) -> Module:
    """Inline absolutely everything into a single leaf module.

    Only safe for small programs (size grows to the expanded gate
    count); used by tests and the Figure 4 example.
    """
    result = flatten_program(program, fth=2 ** 63)
    entry = result.program.entry_module
    if not entry.is_leaf:
        raise AssertionError("fully_flatten left residual calls")
    return entry
