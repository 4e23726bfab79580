"""Interprocedural qubit-lifetime analysis (codes ``QL401``-``QL404``).

The ``QL0xx`` rules stop at call boundaries: a called module "may
measure, prepare, or entangle its arguments", so per-qubit state is
weakened to unknown at every call. This module replaces that weakening
with *summaries*: a bottom-up pass (through the
:mod:`.dataflow` engine) computes, for every module, what it does to
each formal parameter — whether it is acted on at all, whether its
first action is a preparation, the state it is left in on exit, and
which parameters may be mutually entangled on exit — and a second,
always-run walk replays each module body against its callees'
summaries to emit findings the intra-module rules structurally cannot
see:

* ``QL401`` — a first-touch preparation whose value is never consumed
  (dead write), with callee effects on the qubit resolved through
  summaries instead of assumed;
* ``QL402`` — a qubit used after being released (measured without
  re-preparation) where the release and the use are separated by a
  call boundary — the exact gap ``QL006`` leaves open;
* ``QL403`` — an ancilla passed to a callee that leaves it dirty and
  never cleaned afterwards by its owner (the interprocedural
  complement of ``QL003``, which deliberately skips every
  call-escaping qubit);
* ``QL404`` — re-preparing a qubit while it is possibly entangled
  (collapsing its partners as a side effect), via abstract
  entanglement tracking.

Abstract domains (see the table in ``DESIGN.md``):

* per-qubit **status** — the flat lattice ``UNTOUCHED`` (bottom) /
  ``CLEAN`` (known basis state) / ``ACTIVE`` (coherent, unknown) /
  ``RELEASED`` (measured, collapsed). Bodies are straight-line, so the
  forward walk never joins; calls move statuses via the callee's
  per-parameter exit facts.
* **entanglement** — a symmetric may-relation kept as a partition of
  qubits into possibly-entangled components (the conservative
  transitive closure; a powerset lattice per qubit, joined by union
  when a multi-qubit gate can entangle). Measurement and preparation
  detach a qubit from its component. A *taint* bit records possible
  entanglement with callee-internal state that is invisible in this
  frame.

Basis-preserving gates (Paulis, CNOT/Toffoli-family, phase rotations)
applied to ``CLEAN`` qubits keep them ``CLEAN`` and create no
entanglement — this is what keeps classical ripple logic (adders,
oracles) out of ``QL404``'s way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..core.module import Module, Program
from ..core.operation import CallSite, Operation
from ..core.qubits import Qubit
from ..core.source import SourceLocation
from .dataflow import run_forward
from .diagnostics import Severity
from .program_rules import MEAS_GATES, PREP_GATES, _qname
from .registry import Reporter, deep_rule

__all__ = [
    "QubitStatus",
    "ParamSummary",
    "LifetimeSummary",
    "LifetimeEvent",
    "LifetimeAnalysis",
    "walk_module",
]


#: Gates that map computational-basis states to computational-basis
#: states (up to phase): applied to CLEAN qubits they neither create
#: superposition nor entanglement.
BASIS_PRESERVING = frozenset(
    {
        "X",
        "Y",
        "Z",
        "S",
        "Sdag",
        "T",
        "Tdag",
        "Rz",
        "CNOT",
        "CZ",
        "CRz",
        "SWAP",
        "Toffoli",
        "Fredkin",
        "CCZ",
    }
)


class QubitStatus(enum.Enum):
    """Abstract per-qubit state (the flat status lattice)."""

    UNTOUCHED = "untouched"
    CLEAN = "clean"
    ACTIVE = "active"
    RELEASED = "released"


@dataclass(frozen=True)
class ParamSummary:
    """Exit facts about one formal parameter of a module.

    Attributes:
        used: the module (or something it calls) acts on the qubit.
        first: the first action on the qubit — ``"none"``, ``"prep"``
            or ``"use"``. ``"prep"`` means the incoming value is never
            observed, which legitimises passing a released qubit.
        exit: the parameter's :class:`QubitStatus` value on exit.
        tainted: on exit the qubit may be entangled with callee-
            internal state invisible to the caller.
    """

    used: bool
    first: str
    exit: str
    tainted: bool


@dataclass(frozen=True)
class LifetimeSummary:
    """Lifetime summary of one module: per-parameter exit facts plus
    the groups of parameter indices possibly entangled on exit."""

    params: Tuple[ParamSummary, ...]
    groups: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class LifetimeEvent:
    """One lifetime finding, produced by the emission walk and mapped
    onto a diagnostic by the matching deep rule."""

    kind: str  # "dead-write" | "use-after-release" | "ancilla-leak"
    #        | "entangled-prep"
    module: str
    stmt: Optional[int]
    qubit: str
    message: str
    loc: Optional[SourceLocation] = None


@dataclass(frozen=True)
class _Release:
    """Where and how a qubit was released (measured, not re-prepared)."""

    stmt: int
    source: str  # "direct" | "call"
    via: str  # gate name or callee name


@dataclass
class _QubitState:
    status: QubitStatus = QubitStatus.UNTOUCHED
    used: bool = False
    first: str = "none"
    tainted: bool = False
    pending_prep: Optional[int] = None
    pending_loc: Optional[SourceLocation] = None
    release: Optional[_Release] = None
    escaped: bool = False
    last_call: Optional[int] = None  # stmt of last call leaving it dirty
    last_callee: Optional[str] = None
    last_call_loc: Optional[SourceLocation] = None
    direct_after_call: bool = True  # caller touched it since that call


@dataclass
class _WalkState:
    """The forward-walk state threaded by :func:`run_forward`."""

    qubits: Dict[Qubit, _QubitState] = field(default_factory=dict)
    #: Possibly-entangled components: shared-set representation.
    comp: Dict[Qubit, Set[Qubit]] = field(default_factory=dict)
    events: List[LifetimeEvent] = field(default_factory=list)
    _seen: Set[Tuple[str, Optional[int], str]] = field(default_factory=set)

    def state(self, q: Qubit) -> _QubitState:
        st = self.qubits.get(q)
        if st is None:
            st = _QubitState()
            self.qubits[q] = st
        return st

    def component(self, q: Qubit) -> Set[Qubit]:
        members = self.comp.get(q)
        if members is None:
            members = {q}
            self.comp[q] = members
        return members

    def union(self, qubits: Tuple[Qubit, ...]) -> None:
        merged = self.component(qubits[0])
        for q in qubits[1:]:
            other = self.component(q)
            if other is merged:
                continue
            if len(other) > len(merged):
                merged, other = other, merged
            merged.update(other)
            for member in other:
                self.comp[member] = merged

    def detach(self, q: Qubit) -> None:
        self.component(q).discard(q)
        self.comp[q] = {q}

    def entangled(self, q: Qubit) -> bool:
        return len(self.component(q)) > 1 or self.state(q).tainted

    def partners(self, q: Qubit) -> List[Qubit]:
        return sorted(
            (p for p in self.component(q) if p != q),
            key=lambda p: (p.register, p.index),
        )

    def emit(
        self,
        kind: str,
        module: str,
        stmt: Optional[int],
        qubit: Qubit,
        message: str,
        loc: Optional[SourceLocation],
    ) -> None:
        key = (kind, stmt, _qname(qubit))
        if key in self._seen:
            return
        self._seen.add(key)
        self.events.append(
            LifetimeEvent(
                kind=kind,
                module=module,
                stmt=stmt,
                qubit=_qname(qubit),
                message=message,
                loc=loc,
            )
        )


class _LifetimeTransfer:
    """Transfer functions of the lifetime walk (one module body)."""

    def __init__(
        self,
        module: Module,
        callees: Mapping[str, LifetimeSummary],
    ) -> None:
        self._module = module
        self._callees = callees

    def boundary(self, module: Module) -> _WalkState:
        walk = _WalkState()
        for q in module.params:
            walk.state(q)  # parameters exist from entry, untouched
        return walk

    # -- gates ---------------------------------------------------------

    def operation(
        self, walk: _WalkState, op: Operation, index: int
    ) -> _WalkState:
        name = self._module.name
        if op.gate in PREP_GATES:
            q = op.qubits[0]
            st = walk.state(q)
            if walk.entangled(q):
                partners = walk.partners(q)
                detail = (
                    f"with {_qname(partners[0])}"
                    if partners
                    else "with callee-internal state"
                )
                walk.emit(
                    "entangled-prep",
                    name,
                    index,
                    q,
                    f"{_qname(q)} is re-prepared by {op.gate} while "
                    f"possibly entangled {detail}: the preparation "
                    f"collapses its partners as a side effect",
                    op.loc,
                )
            walk.detach(q)
            st.tainted = False
            st.release = None
            if st.status is QubitStatus.UNTOUCHED:
                st.pending_prep = index
                st.pending_loc = op.loc
                st.first = "prep"
            else:
                st.direct_after_call = True
            st.status = QubitStatus.CLEAN
            st.used = True
            return walk

        if op.gate in MEAS_GATES:
            q = op.qubits[0]
            st = walk.state(q)
            if st.release is not None and st.release.source == "call":
                walk.emit(
                    "use-after-release",
                    name,
                    index,
                    q,
                    f"{_qname(q)} is measured by {op.gate} after "
                    f"call to {st.release.via!r} already released it "
                    f"(stmt {st.release.stmt}): the result is "
                    f"redundant",
                    op.loc,
                )
            st.release = _Release(index, "direct", op.gate)
            st.status = QubitStatus.RELEASED
            walk.detach(q)
            st.tainted = False
            st.pending_prep = None
            st.used = True
            if st.first == "none":
                st.first = "use"
            st.direct_after_call = True
            return walk

        states = [walk.state(q) for q in op.qubits]
        for q, st in zip(op.qubits, states):
            if st.release is not None:
                if st.release.source == "call":
                    walk.emit(
                        "use-after-release",
                        name,
                        index,
                        q,
                        f"{op.gate} is applied to {_qname(q)} after "
                        f"call to {st.release.via!r} released it "
                        f"(measured on exit, stmt {st.release.stmt}) "
                        f"without re-preparation",
                        op.loc,
                    )
                # Direct-release/direct-use is QL006's finding; either
                # way the defect is reported once, so clear the mark.
                st.release = None
            st.pending_prep = None
            st.used = True
            if st.first == "none":
                st.first = "use"
            st.direct_after_call = True
        classical = all(
            st.status in (QubitStatus.UNTOUCHED, QubitStatus.CLEAN)
            for st in states
        )
        if classical and op.gate in BASIS_PRESERVING:
            for st in states:
                st.status = QubitStatus.CLEAN
        else:
            for st in states:
                st.status = QubitStatus.ACTIVE
            if len(op.qubits) > 1:
                walk.union(op.qubits)
        return walk

    # -- calls ---------------------------------------------------------

    def call(
        self, walk: _WalkState, call: CallSite, index: int
    ) -> _WalkState:
        summary = self._callees.get(call.callee)
        if summary is None:  # unknown callee: weaken like QL0xx does
            for q in call.args:
                st = walk.state(q)
                st.escaped = True
                st.used = True
                st.release = None
                st.pending_prep = None
            return walk
        # A summary application is idempotent from the second
        # repetition on, so iterated calls are modelled exactly by
        # applying the transfer twice: the second application sees the
        # first's exit state and surfaces iteration-boundary hazards
        # (e.g. a callee that measures a parameter it also consumes).
        applications = 2 if call.iterations > 1 else 1
        for _ in range(applications):
            self._apply_summary(walk, call, index, summary)
        return walk

    def _apply_summary(
        self,
        walk: _WalkState,
        call: CallSite,
        index: int,
        summary: LifetimeSummary,
    ) -> None:
        name = self._module.name
        pairs = list(zip(call.args, summary.params))
        # Checks against the incoming state first.
        for q, ps in pairs:
            st = walk.state(q)
            if st.release is not None and ps.used and ps.first != "prep":
                walk.emit(
                    "use-after-release",
                    name,
                    index,
                    q,
                    f"{_qname(q)} is passed to {call.callee!r}, which "
                    f"consumes it, after it was released "
                    f"(measured without re-preparation, "
                    f"stmt {st.release.stmt}, via {st.release.via})",
                    call.loc,
                )
                st.release = None
            if ps.used and ps.first == "prep" and walk.entangled(q):
                partners = walk.partners(q)
                detail = (
                    f"with {_qname(partners[0])}"
                    if partners
                    else "with callee-internal state"
                )
                walk.emit(
                    "entangled-prep",
                    name,
                    index,
                    q,
                    f"{_qname(q)} is passed to {call.callee!r}, whose "
                    f"first action re-prepares it, while possibly "
                    f"entangled {detail}: the preparation collapses "
                    f"its partners as a side effect",
                    call.loc,
                )
        # Exit effects.
        tainted_params = {
            j for j, ps in enumerate(summary.params) if ps.tainted
        }
        for j, (q, ps) in enumerate(pairs):
            st = walk.state(q)
            st.escaped = True
            if ps.used:
                st.used = True
                # A callee whose first action re-prepares the qubit
                # never observes the incoming value, so a pending
                # (unconsumed) preparation in this frame stays dead.
                if ps.first != "prep":
                    st.pending_prep = None
            if st.first == "none" and ps.first != "none":
                st.first = ps.first
            if ps.exit == QubitStatus.CLEAN.value:
                st.status = QubitStatus.CLEAN
                walk.detach(q)
                st.tainted = False
                st.release = None
                st.direct_after_call = True  # callee cleaned it up
            elif ps.exit == QubitStatus.ACTIVE.value:
                st.status = QubitStatus.ACTIVE
                st.release = None
                st.last_call = index
                st.last_callee = call.callee
                st.last_call_loc = call.loc
                st.direct_after_call = False
            elif ps.exit == QubitStatus.RELEASED.value:
                st.status = QubitStatus.RELEASED
                st.release = _Release(index, "call", call.callee)
                walk.detach(q)
                st.tainted = False
            if j in tainted_params:
                st.tainted = True
        # Exit entanglement among the arguments.
        for group in summary.groups:
            members = tuple(call.args[j] for j in group)
            if len(members) > 1:
                walk.union(members)


def walk_module(
    module: Module,
    callees: Mapping[str, LifetimeSummary],
    entry: bool = False,
) -> Tuple[LifetimeSummary, List[LifetimeEvent]]:
    """Walk one module body against its callee summaries.

    Returns the module's own :class:`LifetimeSummary` plus the
    :class:`LifetimeEvent` findings of the walk (exit findings — dead
    writes and leaked ancillas — are suppressed where the qubit's fate
    belongs to the caller or to the program output, mirroring
    ``QL003``'s ownership rules; ``entry`` marks the program entry,
    whose leftovers *are* the outputs).
    """
    walk = run_forward(module, _LifetimeTransfer(module, callees))
    params = set(module.params)
    name = module.name

    for q in module.qubits():
        st = walk.qubits.get(q)
        if st is None:
            continue
        is_param = q in params
        if st.pending_prep is not None and (entry or not is_param):
            walk.emit(
                "dead-write",
                name,
                st.pending_prep,
                q,
                f"{_qname(q)} is prepared at stmt {st.pending_prep} "
                f"but its value is never consumed (dead write)",
                st.pending_loc,
            )
        if (
            not entry
            and not is_param
            and st.status is QubitStatus.ACTIVE
            and st.last_call is not None
            and not st.direct_after_call
        ):
            walk.emit(
                "ancilla-leak",
                name,
                st.last_call,
                q,
                f"local qubit {_qname(q)} of module {name!r} is left "
                f"dirty by the call to {st.last_callee!r} and never "
                f"uncomputed, measured, or re-prepared before the "
                f"module returns (interprocedural ancilla leak)",
                st.last_call_loc,
            )

    # -- summarise the parameters --------------------------------------
    param_summaries: List[ParamSummary] = []
    for q in module.params:
        st = walk.state(q)
        tainted = st.tainted or any(
            p not in params
            and walk.state(p).status is QubitStatus.ACTIVE
            for p in walk.component(q)
            if p != q
        )
        param_summaries.append(
            ParamSummary(
                used=st.used,
                first=st.first,
                exit=st.status.value,
                tainted=tainted,
            )
        )
    index_of = {q: i for i, q in enumerate(module.params)}
    groups: Set[Tuple[int, ...]] = set()
    for q in module.params:
        member_ids = tuple(
            sorted(
                index_of[p]
                for p in walk.component(q)
                if p in index_of
            )
        )
        if len(member_ids) > 1:
            groups.add(member_ids)
    summary = LifetimeSummary(
        params=tuple(param_summaries),
        groups=tuple(sorted(groups)),
    )
    return summary, walk.events


class LifetimeAnalysis:
    """The lifetime summary computation, engine-shaped (see
    :class:`~repro.analysis.dataflow.InterproceduralAnalysis`)."""

    def summarize(
        self,
        module: Module,
        callees: Mapping[str, LifetimeSummary],
    ) -> LifetimeSummary:
        summary, _ = walk_module(module, callees, entry=False)
        return summary


def emit_lifetime_events(
    program: Program,
    summaries: Mapping[str, LifetimeSummary],
) -> List[LifetimeEvent]:
    """Replay every reachable module against its callees' summaries
    and collect the findings."""
    events: List[LifetimeEvent] = []
    for name in program.topological_order():
        module = program.modules[name]
        _, found = walk_module(
            module,
            {c: summaries[c] for c in module.callees() if c in summaries},
            entry=(name == program.entry),
        )
        events.extend(found)
    return events


# ---------------------------------------------------------------------------
# The QL4xx deep rules: events -> diagnostics
# ---------------------------------------------------------------------------


def _emit_kind(context: Any, out: Reporter, kind: str) -> None:
    for ev in context.lifetime_events():
        if ev.kind != kind:
            continue
        out.emit(
            ev.message,
            module=ev.module,
            stmt=ev.stmt,
            qubit=ev.qubit,
            loc=ev.loc,
        )


@deep_rule(
    "QL401",
    "dead-write",
    Severity.WARNING,
    "A first-touch preparation whose value is never consumed, with "
    "callee effects resolved through lifetime summaries.",
)
def check_dead_write(context: Any, out: Reporter) -> None:
    _emit_kind(context, out, "dead-write")


@deep_rule(
    "QL402",
    "use-after-release",
    Severity.ERROR,
    "A qubit is consumed after being released (measured without "
    "re-preparation) across a call boundary.",
)
def check_use_after_release(context: Any, out: Reporter) -> None:
    _emit_kind(context, out, "use-after-release")


@deep_rule(
    "QL403",
    "interprocedural-ancilla-leak",
    Severity.WARNING,
    "A local qubit left dirty by a callee escapes its owning module "
    "without cleanup (the cross-call complement of QL003).",
)
def check_interprocedural_leak(context: Any, out: Reporter) -> None:
    _emit_kind(context, out, "ancilla-leak")


@deep_rule(
    "QL404",
    "entangled-reprep",
    Severity.WARNING,
    "A qubit is re-prepared while possibly entangled, collapsing its "
    "partners as a side effect.",
)
def check_entangled_reprep(context: Any, out: Reporter) -> None:
    _emit_kind(context, out, "entangled-prep")
