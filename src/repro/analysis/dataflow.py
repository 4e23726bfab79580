"""Interprocedural dataflow: a worklist fixpoint engine over the call
graph, with content-addressed summary memoization.

The hierarchical IR keeps programs modular (straight-line bodies, an
acyclic call graph — Section 3.1 of the paper), which makes whole-
program analysis *compositional*: analyse each module once against the
summaries of its callees, bottom-up. This module provides the three
generic pieces every such analysis shares:

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

3. **Summary memoization** — :class:`SummaryCache` persists per-module
   summaries through the PR-2 content-addressed artifact store, keyed
   by :func:`summary_fingerprint`: a SHA-256 over the analysis
   name/version, :data:`~repro.core.canonical.PIPELINE_VERSION`, the
   module's canonical form, and the fingerprints of its callee
   summaries (a Merkle chain — editing any transitively-called module
   re-fingerprints every caller). Warm ``lint --deep`` runs therefore
   skip every unchanged module's transfer function.

Summaries must be pure functions of (module, callee summaries):
diagnostic *emission* happens in a separate always-run phase
(:mod:`.deep`) so cache hits can never swallow findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Generic,
    List,
    Mapping,
    Optional,
    Protocol,
    Set,
    TypeVar,
    Union,
)

from ..core.canonical import PIPELINE_VERSION, canonical_module, digest
from ..core.module import Module, Program
from ..core.operation import CallSite, Operation

__all__ = [
    "Lattice",
    "PowersetLattice",
    "TransferFunctions",
    "run_forward",
    "InterproceduralAnalysis",
    "SummaryCache",
    "SummaryCacheStats",
    "summary_fingerprint",
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
    callee summaries — no diagnostics, no global state — so that a
    cached summary is indistinguishable from a recomputed one.
    ``to_payload``/``from_payload`` round-trip a summary through JSON
    for the on-disk cache; the payload is also the engine's change
    detector, so it must be deterministic.
    """

    #: Stable analysis identifier (part of the cache key).
    name: str
    #: Bump on any behavioural change to ``summarize`` (part of the
    #: cache key; plays the role PIPELINE_VERSION plays for compile
    #: artifacts, at per-analysis granularity).
    version: str

    def summarize(self, module: Module, callees: Mapping[str, S]) -> S:
        ...

    def to_payload(self, summary: S) -> Dict[str, Any]:
        ...

    def from_payload(self, payload: Dict[str, Any]) -> S:
        ...


def summary_fingerprint(
    analysis_name: str,
    analysis_version: str,
    module: Module,
    callee_fingerprints: Mapping[str, str],
    pipeline_version: str = PIPELINE_VERSION,
) -> str:
    """Content fingerprint of one module's summary computation.

    Covers everything the summary is a function of: the analysis
    (name + version), the pipeline version, the module's canonical
    form, and the fingerprints of the callee summaries it consumed
    (sorted by callee name — :meth:`Module.callees` is a set and must
    never be iterated unsorted into a hash).
    """
    return digest(
        {
            "kind": "repro.summary/1",
            "analysis": analysis_name,
            "analysis_version": analysis_version,
            "pipeline": pipeline_version,
            "module": canonical_module(module),
            "callees": sorted(callee_fingerprints.items()),
        }
    )


@dataclass
class SummaryCacheStats:
    """Hit/miss/store counters for one summary cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


class SummaryCache:
    """Disk-backed memo of per-module analysis summaries.

    Summaries are stored through the same sharded, versioned
    :class:`~repro.service.store.ArtifactStore` the compile service
    uses, under a ``summaries/`` subdirectory of the cache root, so
    summaries and compile artifacts share one cache tree and one
    invalidation story: a :data:`PIPELINE_VERSION` bump changes
    every fingerprint *and* makes the store refuse (and delete) old
    envelopes.

    Args:
        cache_dir: cache root (the store lives in
            ``<cache_dir>/summaries``).
        pipeline_version: override for cache-invalidation tests.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        pipeline_version: str = PIPELINE_VERSION,
    ) -> None:
        # Deferred import: repro.service pulls in the toolflow, which
        # imports repro.analysis — by construction-time the package
        # cycle has resolved.
        from ..service.store import ArtifactStore

        self.pipeline_version = pipeline_version
        self.stats = SummaryCacheStats()
        self._store = ArtifactStore(
            Path(cache_dir) / "summaries",
            pipeline_version=pipeline_version,
        )

    def load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached summary payload, or ``None`` on miss/stale."""
        payload = self._store.load(fingerprint)
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def save(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Persist one summary payload under its fingerprint."""
        self._store.save(fingerprint, payload)
        self.stats.stores += 1

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SummaryCache({str(self._store.root)!r}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


# ---------------------------------------------------------------------------
# The worklist fixpoint engine
# ---------------------------------------------------------------------------


@dataclass
class FixpointResult(Generic[S]):
    """Output of one bottom-up solve.

    Attributes:
        summaries: per-module summaries, keyed by module name; covers
            exactly the modules reachable from the entry.
        fingerprints: content fingerprint of each summary (the cache
            key it was stored/loaded under).
        order: the callees-first order the worklist was seeded with.
        iterations: worklist pops — equals ``len(order)`` on acyclic
            graphs (each module summarised once).
        cache_stats: counters of the cache used, if any.
    """

    summaries: Dict[str, S]
    fingerprints: Dict[str, str]
    order: List[str]
    iterations: int
    cache_stats: Optional[SummaryCacheStats] = None


def solve_bottom_up(
    program: Program,
    analysis: InterproceduralAnalysis[S],
    cache: Optional[SummaryCache] = None,
) -> FixpointResult[S]:
    """Run ``analysis`` to fixpoint over ``program``'s call graph.

    Modules reachable from the entry are seeded callees-first into a
    position-ordered worklist. Each pop summarises one module against
    its callees' current summaries — through ``cache`` when the
    summary fingerprint hits — and, if the summary's payload changed,
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
    payloads: Dict[str, Dict[str, Any]] = {}
    fingerprints: Dict[str, str] = {}
    pipeline_version = (
        cache.pipeline_version if cache is not None else PIPELINE_VERSION
    )

    # The cache may be shared across several solves (e.g. lifetime +
    # resource under one ``analyze_deep``); snapshot its counters so
    # this result reports only this solve's traffic.
    base = (
        (cache.stats.hits, cache.stats.misses, cache.stats.stores)
        if cache is not None
        else (0, 0, 0)
    )

    pending: Set[str] = set(order)
    iterations = 0
    while pending:
        name = min(pending, key=lambda n: position[n])
        pending.discard(name)
        iterations += 1

        module = program.modules[name]
        callee_names = sorted(module.callees())
        fingerprint = summary_fingerprint(
            analysis.name,
            analysis.version,
            module,
            {c: fingerprints[c] for c in callee_names},
            pipeline_version=pipeline_version,
        )
        payload = cache.load(fingerprint) if cache is not None else None
        if payload is not None:
            summary = analysis.from_payload(payload)
        else:
            summary = analysis.summarize(
                module, {c: summaries[c] for c in callee_names}
            )
            payload = analysis.to_payload(summary)
            if cache is not None:
                cache.save(fingerprint, payload)

        changed = payloads.get(name) != payload
        summaries[name] = summary
        payloads[name] = payload
        fingerprints[name] = fingerprint
        if changed:
            for caller in callers.get(name, set()):
                if caller in payloads:
                    pending.add(caller)

    stats: Optional[SummaryCacheStats] = None
    if cache is not None:
        stats = SummaryCacheStats(
            hits=cache.stats.hits - base[0],
            misses=cache.stats.misses - base[1],
            stores=cache.stats.stores - base[2],
        )
    return FixpointResult(
        summaries=summaries,
        fingerprints=fingerprints,
        order=order,
        iterations=iterations,
        cache_stats=stats,
    )
