"""Hierarchical coarse-grained scheduling — the paper's Algorithm 3.

Benchmarks at 10^7..10^12 gates cannot be flattened and fine-scheduled
whole. Instead, leaf modules are fine-scheduled (RCP / LPFS) and treated
as *blackboxes* with a length (schedule cycles) and width (regions
used); non-leaf modules are then list-scheduled over their statements,
packing parallelizable blackboxes side by side within the ``k``-region
constraint.

The key refinement is *flexible blackbox dimensions*: each callee is
pre-scheduled at widths ``1..k``, and the list scheduler chooses, per
call site, the width that minimises the call's finish time given
current region availability — the practical equivalent of Algorithm 3's
"try all combinations of possible widths" step. Statements are
processed in criticality (height) order, which is topologically
consistent, and each starts at ``max(te, region availability)`` exactly
as Algorithm 3's ``timestep(Fi) = max(totalL+1, te)`` allows staggered
starts within a parallel set.

Cost parameterisation: Figure 6's parallelism-only view charges gates 1
cycle and call boundaries nothing; the communication-aware views
(Figures 7-9) charge non-call ops ``1 + 4`` (execute + movement) and
each call boundary one teleport epoch for the active-qubit flush to
global memory (Section 3.2). Callers select these via ``gate_cost`` /
``call_overhead`` and by supplying per-width callee costs measured in
the matching metric.

Each call prepares its module once (:class:`_Prepared`): dimension
tables, each statement's direct predecessors from one per-qubit
last-user pass, heights from one reverse pass over those lists, and
the criticality order. No :class:`~repro.core.dag.DependenceDAG` is
built. Placement then takes two exact shortcuts. With one region
every statement starts when the previous one ends, so the length-only
profile at ``k = 1`` is the sum of the width-1 costs. A parallel batch
whose members all have one width (every direct op has one) skips the
joint width optimisation. Every result equals the
unshortened algorithm's, kept as ``schedule_coarse_reference`` in
``tests/oracle``. A statement with no width within ``k`` raises a
``ValueError`` naming the module, the statement index and the callee.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.module import Module
from ..core.operation import Operation
from ..core.qubits import Qubit
from ..instrument import spanned

__all__ = [
    "Placement",
    "CoarseResult",
    "best_dim",
    "schedule_coarse",
    "coarse_length_profile",
]

#: width -> cost table for one blackbox.
Dims = Dict[int, int]


def best_dim(dims: Dims, budget: int) -> Tuple[int, int]:
    """The (width, cost) choice minimising cost within a width budget.

    Ties prefer the narrower width (cheaper to pack). Raises if no
    width fits the budget.
    """
    candidates = [(c, w) for w, c in dims.items() if w <= budget]
    if not candidates:
        raise ValueError(
            f"no blackbox width fits budget {budget} (have "
            f"{sorted(dims)})"
        )
    cost, width = min(candidates)
    return width, cost


@dataclass
class Placement:
    """Where one statement landed in the coarse schedule."""

    node: int
    start: int
    finish: int
    width: int


@dataclass
class CoarseResult:
    """Outcome of coarse-scheduling one (possibly non-leaf) module."""

    module: str
    k: int
    total_length: int
    total_width: int
    placements: List[Placement] = field(default_factory=list)

    @property
    def parallelized(self) -> int:
        """Statements that overlap in time with at least one other."""
        count = 0
        for p in self.placements:
            for q in self.placements:
                if q is not p and q.start < p.finish and p.start < q.finish:
                    count += 1
                    break
        return count


class _Prepared:
    """The k-independent half of coarse scheduling, computed once per
    call and shared by every width the call places.

    Per statement ``i``:

    * ``dims_of[i]`` — its width->cost table: one ``{1: gate_cost}``
      shared by all direct ops, one scaled table per distinct
      (callee, iterations) pair;
    * ``items_of[i]`` / ``minw_of[i]`` — that table's width-sorted
      items and narrowest width, so placement never re-derives them;
    * ``preds[i]`` — its direct predecessors, deduplicated: the
      previous user of each operand. These are the edges of
      :func:`~repro.core.dag._build_edges_fast`, taken in the same loop
      as the tables and without its sorting and successor lists; the
      differential tests hold every result to the DAG-based oracle.

    ``order`` is the criticality order: heights descending, program
    order among ties, where a statement's height is the longest chain
    of minimum costs from it to a sink, its own cost included. Heights
    come from one reverse pass over ``preds``: when statement ``i`` is
    reached, every later statement has pushed its height into ``i``'s
    running maximum.
    """

    __slots__ = (
        "name",
        "body",
        "dims_of",
        "items_of",
        "minw_of",
        "preds",
        "order",
    )

    def __init__(
        self,
        module: Module,
        callee_dims: Dict[str, Dims],
        gate_cost: int,
        call_overhead: int,
    ):
        stmts = self.body = module.body
        self.name = module.name
        n = len(stmts)
        # One entry per distinct table: (dims, items, narrowest width,
        # minimum cost).
        op_entry = ({1: gate_cost}, ((1, gate_cost),), 1, gate_cost)
        call_cache: Dict[Tuple[str, int], tuple] = {}
        entries = []
        preds: List[List[int]] = []
        last_user: Dict[Qubit, int] = {}
        get_last = last_user.get
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, Operation):
                operands = stmt.qubits
                entries.append(op_entry)
            else:
                operands = stmt.args
                cache_key = (stmt.callee, stmt.iterations)
                entry = call_cache.get(cache_key)
                if entry is None:
                    table = callee_dims.get(stmt.callee)
                    if not table:
                        raise KeyError(
                            f"no dimensions for callee {stmt.callee!r}"
                        )
                    iterations = stmt.iterations
                    dims = {
                        w: iterations * c + call_overhead
                        for w, c in table.items()
                    }
                    items = tuple(sorted(dims.items()))
                    entry = call_cache[cache_key] = (
                        dims,
                        items,
                        items[0][0],
                        min(dims.values()),
                    )
                entries.append(entry)
            plist: List[int] = []
            for q in operands:
                prev = get_last(q)
                if prev is not None and prev not in plist:
                    plist.append(prev)
                last_user[q] = i
            preds.append(plist)
        self.dims_of: List[Dims] = [e[0] for e in entries]
        self.items_of = [e[1] for e in entries]
        self.minw_of = [e[2] for e in entries]
        self.preds = preds
        # heights[i] holds the tallest successor height seen so far;
        # every successor of i is later, so it is final when i is
        # reached and gains i's own cost.
        costs = [e[3] for e in entries]
        heights = [0] * n
        for i in range(n - 1, -1, -1):
            height = heights[i] + costs[i]
            heights[i] = height
            for p in preds[i]:
                if height > heights[p]:
                    heights[p] = height
        # Sorting is stable also when reversed: ties keep program order.
        self.order = sorted(range(n), key=heights.__getitem__, reverse=True)


def _place(prep: _Prepared, k: int, with_placements: bool = True):
    """Place ``prep``'s statements under a ``k``-region budget.

    Returns a :class:`CoarseResult`, or just the total length when
    ``with_placements`` is false (the multi-width profile only consumes
    lengths, and the peak-width sweep is the placement list's main
    cost).
    """
    dims_of = prep.dims_of
    items_of = prep.items_of
    minw_of = prep.minw_of
    order = prep.order
    preds = prep.preds
    n = len(order)

    # Region pool: free times, kept sorted ascending (regions are
    # interchangeable, so only the multiset matters). Finish times are
    # indexed by node; None marks not-yet-placed.
    free = [0] * k
    finish: List[Optional[int]] = [None] * n
    placements: List[Placement] = []
    total_length = 0

    idx = 0
    while idx < n:
        node = order[idx]
        te = 0
        for p in preds[node]:
            f = finish[p]
            if f > te:
                te = f
        # Regions already free at te — the capacity a parallel set of
        # same-te siblings can share.
        avail = bisect_right(free, te)
        # Gather a contiguous run order[idx:j] of siblings with the same
        # earliest start (their predecessors are all placed — height
        # order guarantees it) that fit within the available regions at
        # their narrowest widths. These get a joint width optimisation
        # (Algorithm 3's "try all combinations of possible widths").
        width_sum = minw_of[node]
        j = idx + 1
        while j < n and avail > 1:
            cand = order[j]
            te_c = 0
            for p in preds[cand]:
                f = finish[p]
                if f is None:
                    # Depends on an unplaced node (maybe the batch).
                    te_c = -1
                    break
                if f > te_c:
                    te_c = f
            if te_c != te:
                break
            w_min = minw_of[cand]
            if width_sum + w_min > avail:
                break
            width_sum += w_min
            j += 1

        if j == idx + 1:
            # Lone statement: pick the width with the earliest finish,
            # allowing a start later than te if wider regions free up.
            # Items ascend by width, so a tie keeps the narrower one.
            fin = None
            for width, cost in items_of[node]:
                if width > k:
                    break
                at = free[width - 1]
                if at < te:
                    at = te
                if fin is None or at + cost < fin:
                    fin, w, start = at + cost, width, at
            if fin is None:
                raise _no_fit(prep, node, k)
            if w == 1:  # every direct op: skip the range loop
                if free[0] < fin:
                    free[0] = fin
            else:
                for i in range(w):
                    if free[i] < fin:
                        free[i] = fin
            free.sort()
            finish[node] = fin
            if fin > total_length:
                total_length = fin
            if with_placements:
                placements.append(Placement(node, start, fin, w))
            idx = j
            continue

        # Joint width optimisation over the batch within the regions
        # free at te. When every member has one width there is nothing
        # to optimise: each takes its narrowest, which is minw_of's.
        batch = order[idx:j]
        if any(len(items_of[m]) > 1 for m in batch):
            widths = _optimize_widths(batch, dims_of, avail)
        else:
            widths = minw_of
        slot = 0
        for member in batch:
            w = widths[member]
            fin = te + dims_of[member][w]
            for _ in range(w):
                free[slot] = fin
                slot += 1
            finish[member] = fin
            if fin > total_length:
                total_length = fin
            if with_placements:
                placements.append(Placement(member, te, fin, w))
        free.sort()
        idx = j

    if not with_placements:
        return total_length
    total_width = _peak_width(placements)
    return CoarseResult(prep.name, k, total_length, total_width, placements)


def _serial_length(prep: _Prepared) -> int:
    """Total length at ``k = 1`` in closed form.

    With one region every statement starts when the one placed before
    it ends (its predecessors all ended by then), so the length is the
    sum of the width-1 costs. A table without width 1 raises the error
    :func:`_place` would raise: the first such statement in
    criticality order.
    """
    dims_of = prep.dims_of
    try:
        return sum([dims[1] for dims in dims_of])
    except KeyError:
        node = next(i for i in prep.order if 1 not in dims_of[i])
        raise _no_fit(prep, node, 1) from None


def _no_fit(prep: _Prepared, node: int, k: int) -> ValueError:
    """The error for a statement with no width within the budget."""
    stmt = prep.body[node]
    what = (
        f"gate {stmt.gate!r}"
        if isinstance(stmt, Operation)
        else f"call to {stmt.callee!r}"
    )
    return ValueError(
        f"module {prep.name!r}, statement {node} ({what}): no blackbox "
        f"width fits k={k} (have {sorted(prep.dims_of[node])})"
    )


@spanned("schedule:coarse")
def schedule_coarse(
    module: Module,
    callee_dims: Dict[str, Dims],
    k: int,
    gate_cost: int = 1,
    call_overhead: int = 0,
) -> CoarseResult:
    """Coarse-schedule ``module`` under a ``k``-region constraint.

    Args:
        module: the module to schedule.
        callee_dims: per-callee width->cost tables (from fine or prior
            coarse scheduling of the callees).
        k: region budget.
        gate_cost: cycles charged per direct (non-call) op.
        call_overhead: cycles added around each call (the active-qubit
            flush; 4 for communication-aware accounting, 0 otherwise).
    """
    if not module.body:
        return CoarseResult(module.name, k, 0, 0, [])
    prep = _Prepared(module, callee_dims, gate_cost, call_overhead)
    return _place(prep, k)


@spanned("schedule:coarse")
def coarse_length_profile(
    module: Module,
    callee_dims: Dict[str, Dims],
    widths: Sequence[int],
    gate_cost: int = 1,
    call_overhead: int = 0,
) -> Dict[int, int]:
    """Total coarse-schedule length at each region budget in ``widths``.

    Equivalent to ``{w: schedule_coarse(...).total_length for w in
    widths}``, but one preparation (dimension tables, predecessors,
    criticality order) serves every width, placement lists are
    skipped, and width 1 is the closed form of :func:`_serial_length`.
    """
    if not module.body:
        return {w: 0 for w in widths}
    prep = _Prepared(module, callee_dims, gate_cost, call_overhead)
    return {
        w: _serial_length(prep)
        if w == 1
        else _place(prep, w, with_placements=False)
        for w in widths
    }


def _optimize_widths(
    members: List[int], dims_of: List[Dims], budget: int
) -> Dict[int, int]:
    """Greedy joint width assignment: start every member at its
    narrowest width, then repeatedly widen whichever member currently
    bounds the set's length, while the region budget allows."""
    widths = {m: min(dims_of[m]) for m in members}

    def cost(m: int) -> int:
        return dims_of[m][widths[m]]

    while True:
        used = sum(widths.values())
        improved = False
        for m in sorted(members, key=cost, reverse=True):
            larger = [w for w in dims_of[m] if w > widths[m]]
            if not larger:
                continue
            nw = min(larger)
            if used - widths[m] + nw > budget:
                continue
            if dims_of[m][nw] >= cost(m):
                continue
            widths[m] = nw
            improved = True
            break
        if not improved:
            break
    return widths


def _peak_width(placements: Sequence[Placement]) -> int:
    """Maximum number of regions simultaneously occupied (a finish and
    a start at the same cycle do not overlap)."""
    events = [(p.start, p.width) for p in placements]
    events += [(p.finish, -p.width) for p in placements]
    events.sort()
    return max(accumulate([delta for _, delta in events], initial=0))
