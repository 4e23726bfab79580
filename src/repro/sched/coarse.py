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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dag import DependenceDAG
from ..core.module import Module
from ..core.operation import Operation
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
        events = sorted(
            (p.start, p.finish, i) for i, p in enumerate(self.placements)
        )
        count = 0
        for i, p in enumerate(self.placements):
            for q in self.placements:
                if q is not p and q.start < p.finish and p.start < q.finish:
                    count += 1
                    break
        return count


class _Prepared:
    """The k-independent half of coarse scheduling, computed once.

    Dimension tables, the min-cost-weighted dependence DAG, heights and
    the criticality order do not depend on the region budget ``k``, so a
    multi-width profile (the toolflow schedules every non-leaf module at
    every candidate width, twice — once per cost metric) can share one
    preparation across all placements. Dimension dicts are shared: one
    ``{1: gate_cost}`` singleton for all direct ops and one scaled table
    per distinct (callee, iterations) pair, plus each table's
    width-sorted items and minimum width, precomputed so the placement
    inner loops never re-derive them.
    """

    __slots__ = ("name", "dims_of", "items_of", "minw_of", "dag", "order")

    def __init__(
        self,
        module: Module,
        callee_dims: Dict[str, Dims],
        gate_cost: int,
        call_overhead: int,
    ):
        stmts = module.body
        self.name = module.name
        dims_of: List[Dims] = []
        op_dims = {1: gate_cost}
        call_cache: Dict[Tuple[str, int], Dims] = {}
        for stmt in stmts:
            if isinstance(stmt, Operation):
                dims_of.append(op_dims)
                continue
            cache_key = (stmt.callee, stmt.iterations)
            dims = call_cache.get(cache_key)
            if dims is None:
                table = callee_dims.get(stmt.callee)
                if not table:
                    raise KeyError(
                        f"no dimensions for callee {stmt.callee!r}"
                    )
                iterations = stmt.iterations
                dims = call_cache[cache_key] = {
                    w: iterations * c + call_overhead
                    for w, c in table.items()
                }
            dims_of.append(dims)
        self.dims_of = dims_of
        items_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        minw_cache: Dict[int, int] = {}
        items_of: List[Tuple[Tuple[int, int], ...]] = []
        minw_of: List[int] = []
        min_costs: List[int] = []
        cost_cache: Dict[int, int] = {}
        for dims in dims_of:
            key = id(dims)
            items = items_cache.get(key)
            if items is None:
                items = items_cache[key] = tuple(sorted(dims.items()))
                minw_cache[key] = min(dims)
                cost_cache[key] = min(dims.values())
            items_of.append(items)
            minw_of.append(minw_cache[key])
            min_costs.append(cost_cache[key])
        self.items_of = items_of
        self.minw_of = minw_of
        self.dag = DependenceDAG(stmts, weights=min_costs)
        heights = self.dag.heights()
        self.order = sorted(
            range(len(stmts)), key=lambda i: (-heights[i], i)
        )


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
    preds = prep.dag.preds
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
        # Gather a contiguous run of siblings with the same earliest
        # start (their predecessors are all placed — height order
        # guarantees it) that fit within the available regions at their
        # narrowest widths. These get a joint width optimisation
        # (Algorithm 3's "try all combinations of possible widths").
        batch = [node]
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
            batch.append(cand)
            width_sum += w_min
            j += 1

        if len(batch) == 1:
            # Lone statement: pick the width with the earliest finish,
            # allowing a start later than te if wider regions free up.
            best: Optional[Tuple[int, int, int, int]] = None
            for w, cost in items_of[node]:
                if w > k:
                    continue
                start = max(te, free[w - 1])
                fin = start + cost
                if best is None or (fin, w) < (best[0], best[1]):
                    best = (fin, w, start, cost)
            assert best is not None, "dims must contain width 1"
            fin, w, start, _ = best
            for i in range(w):
                if free[i] < fin:
                    free[i] = fin
            free.sort()
            finish[node] = fin
            if fin > total_length:
                total_length = fin
            if with_placements:
                placements.append(Placement(node, start, fin, w))
            idx += 1
            continue

        # Joint width optimisation over the batch within the regions
        # free at te.
        widths = _optimize_widths(batch, dims_of, avail)
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
        idx += len(batch)

    if not with_placements:
        return total_length
    total_width = _peak_width(placements)
    return CoarseResult(prep.name, k, total_length, total_width, placements)


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
    widths}``, but the k-independent preparation (dimension tables,
    weighted DAG, criticality order) is shared across all widths and
    placement lists are skipped.
    """
    if not module.body:
        return {w: 0 for w in widths}
    prep = _Prepared(module, callee_dims, gate_cost, call_overhead)
    return {w: _place(prep, w, with_placements=False) for w in widths}


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
    """Maximum number of regions simultaneously occupied."""
    events: List[Tuple[int, int]] = []
    for p in placements:
        events.append((p.start, p.width))
        events.append((p.finish, -p.width))
    events.sort()
    peak = cur = 0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak
