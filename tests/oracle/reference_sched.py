"""Reference (pre-optimization) scheduler implementations: the oracle.

These are the straightforward implementations the pipeline's kernels
replaced: full ready-list rescans per timestep in RCP and LPFS,
per-width re-derivation in the coarse scheduler, and a
whole-memory-map eviction scan per timestep in movement derivation.
They are kept verbatim as the executable specification the kernels in
``repro.core.dag`` and ``repro.sched`` are verified against: the
differential battery (``tests/test_differential.py``) swaps them in
with :func:`tests.oracle.reference_swapped` and asserts byte-identical
``Schedule.to_dict()`` output on hundreds of generated programs and on
every registry program.

The one deliberate semantic change shared by both implementations is
RCP's deterministic tie-break: ``getMaxWeightSimdOpType`` historically
kept whichever (region, gate-type) pair it *encountered first* at the
maximum weight, which depended on ready-list arrival order. Both
implementations now break weight ties by smallest gate name, then
smallest region index (see ``_max_weight_simd_optype``).

Nothing here is instrumented: swapped in, these functions run without
the pipeline's ``schedule:*`` spans.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    epoch_cycles,
    split_epoch,
)
from repro.core.dag import DependenceDAG
from repro.core.module import Module
from repro.core.operation import Operation, Statement
from repro.core.qubits import Qubit
from repro.sched.coarse import CoarseResult, Placement
from repro.sched.comm import CommStats
from repro.sched.rcp import RCPWeights
from repro.sched.types import Move, Schedule

from .memory import MemoryMap

__all__ = [
    "dag_edges_reference",
    "schedule_rcp_reference",
    "schedule_lpfs_reference",
    "derive_movement_reference",
    "schedule_coarse_reference",
    "coarse_length_profile_reference",
]


# -- DAG construction ----------------------------------------------------


def _operands(stmt: Statement) -> Tuple[Qubit, ...]:
    return stmt.qubits if isinstance(stmt, Operation) else stmt.args


def dag_edges_reference(
    statements: Sequence[Statement],
) -> Tuple[List[List[int]], List[List[int]]]:
    """The original per-node set-and-sort edge construction.

    Returns ``(preds, succs)`` exactly as the pre-optimization
    ``DependenceDAG.__init__`` built them.
    """
    n = len(statements)
    preds: List[List[int]] = [[] for _ in range(n)]
    succs: List[List[int]] = [[] for _ in range(n)]
    last_touch: Dict[Qubit, int] = {}
    for i, stmt in enumerate(statements):
        pred_set = set()
        for q in _operands(stmt):
            prev = last_touch.get(q)
            if prev is not None:
                pred_set.add(prev)
            last_touch[q] = i
        for p in sorted(pred_set):
            preds[i].append(p)
            succs[p].append(i)
    return preds, succs


# -- RCP -----------------------------------------------------------------


def schedule_rcp_reference(dag, k, d=None, weights=None):
    """Pre-optimization RCP: deque ready list, full rescans."""
    w = weights or RCPWeights()
    sched = Schedule(dag, k=k, d=d, algorithm="rcp")
    indeg = dag.indegrees()
    slack = dag.slack()
    ready: Deque[int] = deque(dag.sources())
    in_ready = set(ready)
    location: Dict[Qubit, Optional[int]] = {}
    scheduled = 0

    while scheduled < dag.n:
        ts = sched.append_timestep()
        available = list(range(k))
        placed_this_ts: List[int] = []
        while available and ready:
            region, gate = _max_weight_simd_optype(
                dag, ready, available, location, slack, w
            )
            batch = _extract_optype(dag, ready, in_ready, gate, d)
            ts.regions[region].extend(batch)
            placed_this_ts.extend(batch)
            for node in batch:
                for q in dag.statements[node].qubits:
                    location[q] = region
            available.remove(region)
        for node in placed_this_ts:
            for child in dag.succs[node]:
                indeg[child] -= 1
                if indeg[child] == 0 and child not in in_ready:
                    ready.append(child)
                    in_ready.add(child)
        scheduled += len(placed_this_ts)
        if not placed_this_ts:  # pragma: no cover - defensive
            raise RuntimeError("RCP made no progress (scheduler bug)")
    return sched


def _max_weight_simd_optype(
    dag,
    ready: Deque[int],
    available: List[int],
    location: Dict[Qubit, Optional[int]],
    slack: List[int],
    w,
) -> Tuple[int, str]:
    """``getMaxWeightSimdOpType`` with the deterministic tie-break:
    highest weight wins; weight ties go to the smallest gate name, then
    the smallest region index."""
    optype_count: Dict[str, int] = {}
    for node in ready:
        gate = dag.statements[node].gate
        optype_count[gate] = optype_count.get(gate, 0) + 1

    best_gate: Optional[str] = None
    best_region = -1
    best_weight = float("-inf")
    for region in available:
        for node in ready:
            op = dag.statements[node]
            resident = sum(
                1 for q in op.qubits if location.get(q) == region
            )
            weight = (
                w.w_op * optype_count[op.gate]
                + w.w_dist * resident
                - w.w_slack * slack[node]
            )
            if weight > best_weight or (
                weight == best_weight
                and (op.gate, region) < (best_gate, best_region)
            ):
                best_weight = weight
                best_gate = op.gate
                best_region = region
    assert best_gate is not None
    return best_region, best_gate


def _extract_optype(
    dag,
    ready: Deque[int],
    in_ready: set,
    gate: str,
    d: Optional[int],
) -> List[int]:
    cap = len(ready) if d is None else d
    batch: List[int] = []
    keep: List[int] = []
    while ready:
        node = ready.popleft()
        if len(batch) < cap and dag.statements[node].gate == gate:
            batch.append(node)
            in_ready.discard(node)
        else:
            keep.append(node)
    ready.extend(keep)
    return batch


# -- LPFS ----------------------------------------------------------------


def schedule_lpfs_reference(dag, k, d=None, l=1, simd=True, refill=True):
    """Pre-optimization LPFS: one shared deque, full rescans per
    region per timestep."""
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    sched = Schedule(dag, k=k, d=d, algorithm="lpfs")
    indeg = dag.indegrees()
    ready: Deque[int] = deque(dag.sources())
    in_ready: Set[int] = set(ready)
    on_path: Set[int] = set()
    done: Set[int] = set()
    paths: List[Deque[int]] = []
    for _ in range(l):
        paths.append(_claim_longest_path(dag, ready, on_path, in_ready, done))

    scheduled = 0
    while scheduled < dag.n:
        ts = sched.append_timestep()
        placed: List[int] = []
        for i in range(l):
            if refill and not paths[i]:
                paths[i] = _claim_longest_path(
                    dag, ready, on_path, in_ready, done
                )
            path = paths[i]
            if path and path[0] in in_ready:
                head = path.popleft()
                in_ready.discard(head)
                on_path.discard(head)
                ts.regions[i].append(head)
                placed.append(head)
                if simd:
                    gate = dag.statements[head].gate
                    cap = None if d is None else d - 1
                    batch = _extract_free(
                        dag, ready, in_ready, on_path, gate, cap
                    )
                    ts.regions[i].extend(batch)
                    placed.extend(batch)
            elif simd:
                gate = _most_common_free_gate(dag, ready, in_ready, on_path)
                if gate is not None:
                    batch = _extract_free(
                        dag, ready, in_ready, on_path, gate, d
                    )
                    ts.regions[i].extend(batch)
                    placed.extend(batch)
        for i in range(l, k):
            gate = _oldest_free_gate(dag, ready, in_ready, on_path)
            if gate is None:
                break
            batch = _extract_free(dag, ready, in_ready, on_path, gate, d)
            ts.regions[i].extend(batch)
            placed.extend(batch)
        if not placed:
            node = None
            while ready:
                candidate = ready.popleft()
                if candidate in in_ready:
                    node = candidate
                    break
            if node is None:  # pragma: no cover - defensive
                raise RuntimeError("LPFS deadlock (scheduler bug)")
            in_ready.discard(node)
            on_path.discard(node)
            for i in range(l):
                if paths[i] and paths[i][0] == node:
                    paths[i].popleft()
            ts.regions[0].append(node)
            placed.append(node)
        done.update(placed)
        for node in placed:
            for child in dag.succs[node]:
                indeg[child] -= 1
                if indeg[child] == 0 and child not in in_ready:
                    ready.append(child)
                    in_ready.add(child)
        scheduled += len(placed)
    return sched


def _claim_longest_path(
    dag,
    ready: Deque[int],
    on_path: Set[int],
    in_ready: Optional[Set[int]] = None,
    scheduled_set: Optional[Set[int]] = None,
) -> Deque[int]:
    live = in_ready if in_ready is not None else set(ready)
    candidates = [n for n in ready if n in live and n not in on_path]
    if not candidates:
        return deque()
    heights = dag.heights()
    start = max(candidates, key=lambda n: (heights[n], -n))
    blocked = scheduled_set or set()
    path: Deque[int] = deque()
    node: Optional[int] = start
    while node is not None and node not in on_path and node not in blocked:
        path.append(node)
        on_path.add(node)
        succs = dag.succs[node]
        node = (
            max(succs, key=lambda s: (heights[s], -s)) if succs else None
        )
    return path


def _extract_free(
    dag,
    ready: Deque[int],
    in_ready: Set[int],
    on_path: Set[int],
    gate: str,
    cap: Optional[int],
) -> List[int]:
    limit = len(ready) if cap is None else max(0, cap)
    batch: List[int] = []
    keep: List[int] = []
    while ready:
        node = ready.popleft()
        if node not in in_ready:
            continue  # stale entry
        if (
            len(batch) < limit
            and node not in on_path
            and dag.statements[node].gate == gate
        ):
            batch.append(node)
            in_ready.discard(node)
        else:
            keep.append(node)
    ready.extend(keep)
    return batch


def _most_common_free_gate(
    dag,
    ready: Deque[int],
    in_ready: Set[int],
    on_path: Set[int],
) -> Optional[str]:
    counts: Dict[str, int] = {}
    for node in ready:
        if node in in_ready and node not in on_path:
            gate = dag.statements[node].gate
            counts[gate] = counts.get(gate, 0) + 1
    if not counts:
        return None
    return max(counts, key=lambda g: (counts[g], g))


def _oldest_free_gate(
    dag,
    ready: Deque[int],
    in_ready: Set[int],
    on_path: Set[int],
) -> Optional[str]:
    for node in ready:
        if node in in_ready and node not in on_path:
            return dag.statements[node].gate
    return None


# -- movement derivation -------------------------------------------------


def _loc_label(loc: tuple) -> str:
    if loc[0] == "global":
        return "global"
    return f"{loc[0]}{loc[1]}"


def derive_movement_reference(sched, machine: MultiSIMD):
    """Pre-optimization movement derivation: the eviction pass scans
    the whole memory map every timestep."""
    for ts in sched.timesteps:
        ts.moves = []

    uses: Dict[Qubit, List[Tuple[int, int]]] = {}
    for t, ts in enumerate(sched.timesteps):
        for r, nodes in enumerate(ts.regions):
            for n in nodes:
                for q in sched.dag.statements[n].qubits:
                    uses.setdefault(q, []).append((t, r))
    next_use_idx: Dict[Qubit, int] = {q: 0 for q in uses}

    mm = MemoryMap(k=sched.k, local_capacity=machine.local_memory)
    stats = CommStats(
        gate_cycles=sched.length * GATE_CYCLES,
        comm_cycles=0,
        teleports=0,
        local_moves=0,
        teleport_epochs=0,
        local_epochs=0,
    )
    pending_evictions: List[Move] = []

    for t, ts in enumerate(sched.timesteps):
        epoch: List[Move] = list(pending_evictions)
        pending_evictions = []
        for r, nodes in enumerate(ts.regions):
            target = ("region", r)
            for n in nodes:
                for q in sched.dag.statements[n].qubits:
                    src = mm.location(q)
                    if src == target:
                        continue
                    kind = (
                        "local"
                        if src == ("local", r)
                        else "teleport"
                    )
                    epoch.append(Move(q, src, target, kind))
                    mm.move(q, target)
            for n in nodes:
                for q in sched.dag.statements[n].qubits:
                    i = next_use_idx[q]
                    while i < len(uses[q]) and uses[q][i][0] <= t:
                        i += 1
                    next_use_idx[q] = i
        ts.moves = epoch
        _bill_epoch(epoch, stats)
        if t + 1 < len(sched.timesteps):
            next_ts = sched.timesteps[t + 1]
            active_next = {
                r for r, nodes in enumerate(next_ts.regions) if nodes
            }
            used_next: Dict[Qubit, int] = {}
            for r, nodes in enumerate(next_ts.regions):
                for n in nodes:
                    for q in sched.dag.statements[n].qubits:
                        used_next[q] = r
            for q, loc in list(mm.locations.items()):
                if loc[0] != "region":
                    continue
                r = loc[1]
                if used_next.get(q) is not None:
                    continue
                if r not in active_next:
                    continue
                nu = next_use_idx[q]
                if nu >= len(uses[q]):
                    continue
                next_region = uses[q][nu][1]
                if (
                    next_region == r
                    and machine.has_local_memory
                    and mm.local_has_space(r)
                ):
                    dest = ("local", r)
                    kind = "local"
                else:
                    dest = ("global",)
                    kind = "teleport"
                pending_evictions.append(Move(q, loc, dest, kind))
                mm.move(q, dest)
    return stats


def _bill_epoch(epoch, stats) -> None:
    teleports, locals_ = split_epoch(epoch)
    stats.teleports += len(teleports)
    stats.local_moves += len(locals_)
    stats.comm_cycles += epoch_cycles(len(teleports), len(locals_))
    if teleports:
        stats.teleport_epochs += 1
        stats.epr.record_epoch(
            [(_loc_label(m.src), _loc_label(m.dst)) for m in teleports]
        )
    elif locals_:
        stats.local_epochs += 1


# -- coarse scheduling ---------------------------------------------------


def schedule_coarse_reference(
    module: Module,
    callee_dims: Dict[str, Dict[int, int]],
    k: int,
    gate_cost: int = 1,
    call_overhead: int = 0,
):
    """Pre-optimization coarse scheduling: rebuilds the statement DAG
    and every dims table on each call (the toolflow called this 2x per
    candidate width per module)."""
    stmts = module.body
    if not stmts:
        return CoarseResult(module.name, k, 0, 0, [])
    dims_of: List[Dict[int, int]] = []
    for stmt in stmts:
        if isinstance(stmt, Operation):
            dims_of.append({1: gate_cost})
        else:
            table = callee_dims.get(stmt.callee)
            if not table:
                raise KeyError(
                    f"no dimensions for callee {stmt.callee!r}"
                )
            dims_of.append(
                {
                    w: stmt.iterations * c + call_overhead
                    for w, c in table.items()
                }
            )
    min_costs = [min(d.values()) for d in dims_of]
    dag = DependenceDAG(stmts, weights=min_costs)
    heights = dag.heights()
    order = sorted(range(len(stmts)), key=lambda i: (-heights[i], i))

    free = [0] * k
    finish: Dict[int, int] = {}
    placements: List[Placement] = []

    idx = 0
    while idx < len(order):
        node = order[idx]
        te = max((finish[p] for p in dag.preds[node]), default=0)
        avail = sum(1 for f in free if f <= te)
        batch = [node]
        width_sum = min(dims_of[node])
        j = idx + 1
        while j < len(order) and avail > 1:
            cand = order[j]
            if any(p not in finish for p in dag.preds[cand]):
                break
            te_c = max((finish[p] for p in dag.preds[cand]), default=0)
            if te_c != te:
                break
            w_min = min(dims_of[cand])
            if width_sum + w_min > avail:
                break
            batch.append(cand)
            width_sum += w_min
            j += 1

        if len(batch) == 1:
            best: Optional[Tuple[int, int, int, int]] = None
            for w, cost in sorted(dims_of[node].items()):
                if w > k:
                    continue
                start = max(te, free[w - 1])
                fin = start + cost
                if best is None or (fin, w) < (best[0], best[1]):
                    best = (fin, w, start, cost)
            assert best is not None, "dims must contain width 1"
            fin, w, start, _ = best
            for i in range(w):
                free[i] = max(free[i], fin)
            free.sort()
            finish[node] = fin
            placements.append(Placement(node, start, fin, w))
            idx += 1
            continue

        widths = _optimize_widths(batch, dims_of, avail)
        slot = 0
        for member in batch:
            w = widths[member]
            fin = te + dims_of[member][w]
            for _ in range(w):
                free[slot] = fin
                slot += 1
            finish[member] = fin
            placements.append(Placement(member, te, fin, w))
        free.sort()
        idx += len(batch)

    total_length = max(p.finish for p in placements)
    total_width = _peak_width(placements)
    return CoarseResult(
        module.name, k, total_length, total_width, placements
    )


def coarse_length_profile_reference(
    module: Module,
    callee_dims: Dict[str, Dict[int, int]],
    widths: Sequence[int],
    gate_cost: int = 1,
    call_overhead: int = 0,
) -> Dict[int, int]:
    """Pre-optimization width profile: one full coarse schedule per
    width in ``widths``."""
    return {
        w: schedule_coarse_reference(
            module, callee_dims, w, gate_cost, call_overhead
        ).total_length
        for w in widths
    }


def _optimize_widths(
    members: List[int], dims_of: List[Dict[int, int]], budget: int
) -> Dict[int, int]:
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


def _peak_width(placements) -> int:
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
