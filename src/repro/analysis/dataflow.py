"""Interprocedural dataflow: a worklist fixpoint engine over the call
graph.

The hierarchical IR keeps programs modular (straight-line bodies, an
acyclic call graph — Section 3.1 of the paper), which makes whole-
program analysis *compositional*: analyse each module once against the
summaries of its callees, bottom-up. This module provides the generic
pieces every such analysis shares:

1. **Domains** — the :class:`Lattice` protocol (bottom / join / leq)
   with :class:`PowersetLattice` as the workhorse instance, and the
   :class:`TransferFunctions` protocol + :func:`run_forward` for the
   intra-module forward walk (exact on straight-line bodies: the
   worklist degenerates to one left-to-right pass and no joins are
   needed; ``join`` is still required of the domain so transfer
   functions can merge facts flowing in from call summaries).

2. **The interprocedural engine** — :func:`solve_bottom_up` runs an
   :class:`InterproceduralAnalysis` to fixpoint over the call graph
   with a position-ordered worklist: modules are seeded callees-first
   (the :meth:`~repro.core.module.Program.topological_order`), and
   whenever a module's summary changes, every caller already processed
   is re-enqueued. On the acyclic graphs the IR guarantees, each
   module is summarised exactly once; the re-enqueue path is what
   keeps the engine a true fixpoint iteration rather than a single
   sweep.

Summaries must be pure functions of (module, callee summaries):
diagnostic *emission* happens in a separate phase (:mod:`.deep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Generic,
    List,
    Mapping,
    Protocol,
    Set,
    TypeVar,
)

from ..core.module import Module, Program
from ..core.operation import CallSite, Operation

__all__ = [
    "Lattice",
    "PowersetLattice",
    "TransferFunctions",
    "run_forward",
    "InterproceduralAnalysis",
    "FixpointResult",
    "solve_bottom_up",
]

V = TypeVar("V")
S = TypeVar("S")
E = TypeVar("E")


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class Lattice(Protocol[V]):
    """A join-semilattice of abstract values."""

    def bottom(self) -> V:
        """The least element (no information)."""
        ...

    def join(self, left: V, right: V) -> V:
        """The least upper bound of two values."""
        ...

    def leq(self, left: V, right: V) -> bool:
        """Partial order: is ``left`` below (at most) ``right``?"""
        ...


class PowersetLattice(Generic[E]):
    """The powerset lattice over any hashable element type: bottom is
    the empty set, join is union, the order is inclusion. This is the
    domain of the footprint component of the resource analysis and of
    the abstract entanglement partner sets."""

    def bottom(self) -> FrozenSet[E]:
        return frozenset()

    def join(self, left: FrozenSet[E], right: FrozenSet[E]) -> FrozenSet[E]:
        return left | right

    def leq(self, left: FrozenSet[E], right: FrozenSet[E]) -> bool:
        return left <= right


class TransferFunctions(Protocol[V]):
    """Per-statement transfer functions of an intra-module analysis.

    ``boundary`` produces the state holding on module entry;
    ``operation`` and ``call`` push a state across one statement.
    Transfer functions must be monotone in the module's
    :class:`Lattice` for the fixpoint engine's termination argument —
    trivially satisfied on straight-line bodies, where each function
    is applied exactly once.
    """

    def boundary(self, module: Module) -> V:
        ...

    def operation(self, state: V, op: Operation, index: int) -> V:
        ...

    def call(self, state: V, call: CallSite, index: int) -> V:
        ...


def run_forward(module: Module, transfer: TransferFunctions[V]) -> V:
    """Run a forward dataflow over one straight-line module body.

    Module bodies have no intra-module control flow, so the forward
    problem is exact: one pass, no joins, returning the exit state.
    """
    state = transfer.boundary(module)
    for index, stmt in enumerate(module.body):
        if isinstance(stmt, Operation):
            state = transfer.operation(state, stmt, index)
        else:
            state = transfer.call(state, stmt, index)
    return state


# ---------------------------------------------------------------------------
# Interprocedural analyses and their summaries
# ---------------------------------------------------------------------------


class InterproceduralAnalysis(Protocol[S]):
    """A bottom-up summary computation over the call graph.

    ``summarize`` must be a *pure* function of the module and its
    callee summaries — no diagnostics, no global state. Summaries are
    compared by value (``==``) to detect change, so they should be
    immutable values such as frozen dataclasses.
    """

    def summarize(self, module: Module, callees: Mapping[str, S]) -> S:
        ...


# ---------------------------------------------------------------------------
# The worklist fixpoint engine
# ---------------------------------------------------------------------------


@dataclass
class FixpointResult(Generic[S]):
    """Output of one bottom-up solve.

    Attributes:
        summaries: per-module summaries, keyed by module name; covers
            exactly the modules reachable from the entry.
        order: the callees-first order the worklist was seeded with.
        iterations: worklist pops — equals ``len(order)`` on acyclic
            graphs (each module summarised once).
    """

    summaries: Dict[str, S]
    order: List[str]
    iterations: int


def solve_bottom_up(
    program: Program,
    analysis: InterproceduralAnalysis[S],
) -> FixpointResult[S]:
    """Run ``analysis`` to fixpoint over ``program``'s call graph.

    Modules reachable from the entry are seeded callees-first into a
    position-ordered worklist. Each pop summarises one module against
    its callees' current summaries and, if the summary changed,
    re-enqueues every already-summarised caller. On the acyclic call
    graphs :class:`~repro.core.module.Program` guarantees, this
    converges in exactly one pop per module; the worklist structure is
    what makes the engine correct even if seeding order and the call
    graph ever disagree.
    """
    order = program.topological_order()  # callees first
    position = {name: index for index, name in enumerate(order)}
    reachable: Set[str] = set(order)
    callers = {
        name: {c for c in callers_ if c in reachable}
        for name, callers_ in program.callers().items()
        if name in reachable
    }

    summaries: Dict[str, S] = {}
    pending: Set[str] = set(order)
    iterations = 0
    while pending:
        name = min(pending, key=lambda n: position[n])
        pending.discard(name)
        iterations += 1

        module = program.modules[name]
        summary = analysis.summarize(
            module, {c: summaries[c] for c in sorted(module.callees())}
        )
        changed = name not in summaries or summaries[name] != summary
        summaries[name] = summary
        if changed:
            for caller in callers.get(name, set()):
                if caller in summaries:
                    pending.add(caller)

    return FixpointResult(
        summaries=summaries, order=order, iterations=iterations
    )
