"""Ready Critical Path (RCP) scheduling — the paper's Algorithm 1.

RCP is a classical list-scheduling algorithm (Yang & Gerasoulis) that
keeps a *ready* list — only ops whose dependencies are all met — and is
extended here for the Multi-SIMD execution model with a priority over
(operation, region) pairs built from three terms:

* **operation-type prevalence** (``w_op``): common gate types are
  preferred, because scheduling one type fills a SIMD region with
  data-parallel work;
* **movement cost** (``w_dist``): operands already resident in a region
  make that region cheaper;
* **slack** (``w_slack``): ops far from their next use can wait
  (negatively correlated with priority).

Each timestep repeatedly picks the highest-weight (region, gate-type)
pair, extracts every ready op of that type into the region (up to ``d``),
and removes the region from the available set, until regions or ready
ops run out. All weights default to 1, as in the paper. Weight ties are
broken deterministically: smallest gate name first, then smallest
region index (historically the tie went to whichever pair the scan
encountered first, which depended on ready-list arrival order).

One kernel per algorithm: :func:`rcp_timesteps` is the package's only
RCP, over an int-coded view — :meth:`repro.core.dag.DependenceDAG.columns`
or :class:`repro.sched.stream.StreamColumns`. :func:`schedule_rcp` and
:func:`repro.sched.stream.schedule_columns` are its two adapters. The
kernel keeps the ready set *bucketed by gate type* (arrival order
preserved within each bucket), so type prevalence is an O(1) counter
read and batch extraction pops one bucket instead of rescanning the
whole ready deque; the (region, gate) selection enumerates each ready
op's resident regions (at most its operand count) plus one
zero-residency representative instead of every available region. The
pre-optimization implementation is kept in ``tests/oracle/``; both
produce bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.dag import DependenceDAG
from ..instrument import spanned
from .types import Schedule

__all__ = ["RCPWeights", "rcp_timesteps", "schedule_rcp"]


class RCPWeights:
    """The w_op / w_dist / w_slack multipliers of Algorithm 1."""

    def __init__(
        self, w_op: float = 1.0, w_dist: float = 1.0, w_slack: float = 1.0
    ):
        self.w_op = w_op
        self.w_dist = w_dist
        self.w_slack = w_slack


@spanned("schedule:rcp")
def schedule_rcp(
    dag: DependenceDAG,
    k: int,
    d: Optional[int] = None,
    weights: Optional[RCPWeights] = None,
) -> Schedule:
    """Schedule ``dag`` on a Multi-SIMD(k,d) machine with RCP."""
    sched = Schedule(dag, k=k, d=d, algorithm="rcp")
    for regions in rcp_timesteps(
        dag.columns(), dag.indegrees(), dag.slack(), k, d, weights
    ):
        sched.append_timestep(regions)
    return sched


def rcp_timesteps(
    cols,
    indeg: List[int],
    slack: Sequence[int],
    k: int,
    d: Optional[int] = None,
    weights: Optional[RCPWeights] = None,
) -> Iterator[Dict[int, List[int]]]:
    """Algorithm 1 over int-coded columns, one timestep at a time.

    ``cols`` is a DAG's :meth:`~repro.core.dag.DependenceDAG.columns`
    view or a :class:`~repro.sched.stream.StreamColumns`; ``indeg`` is
    a fresh in-degree array (consumed) and ``slack`` the per-node
    slack. Yields each timestep's ``{region: nodes}`` map; every node
    list is non-empty.
    """
    w = weights or RCPWeights()
    gate_ids = cols.gate_ids
    op_q, op_off = cols.op_q, cols.op_off
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    # Ready set, bucketed by gate id. Within a bucket nodes keep arrival
    # order, which is all batch extraction needs; the bucket length
    # doubles as the type-prevalence count. Each entry carries the
    # node's operand qubit ids, sliced once on arrival rather than on
    # every priority scan.
    buckets: Dict[int, Deque[Tuple[int, Sequence[int]]]] = {}
    n_ready = 0
    for node in [i for i in range(cols.n) if not indeg[i]]:
        gid = gate_ids[node]
        bucket = buckets.get(gid)
        if bucket is None:
            bucket = buckets[gid] = deque()
        bucket.append((node, op_q[op_off[node] : op_off[node + 1]]))
        n_ready += 1
    # Region of last activity per qubit id; absent = memory (Section
    # 3.2: all qubits start in global memory).
    location: Dict[int, int] = {}
    scheduled = 0

    while scheduled < cols.n:
        regions: Dict[int, List[int]] = {}
        available = list(range(k))
        placed_this_ts: List[int] = []
        while available and n_ready:
            region, gid = _pick_max_weight(
                cols.gate_names, buckets, available, location, slack, w
            )
            bucket = buckets[gid]
            cap = len(bucket) if d is None else d
            batch: List[int] = []
            while bucket and len(batch) < cap:
                node, qids = bucket.popleft()
                batch.append(node)
                for q in qids:
                    location[q] = region
            if not bucket:
                del buckets[gid]
            n_ready -= len(batch)
            regions[region] = batch
            placed_this_ts.extend(batch)
            available.remove(region)
        # Ready-list update: children whose last dependency completed
        # this timestep become ready for the *next* timestep.
        for node in placed_this_ts:
            for j in range(succ_off[node], succ_off[node + 1]):
                child = succ_flat[j]
                indeg[child] -= 1
                if indeg[child] == 0:
                    gid = gate_ids[child]
                    bucket = buckets.get(gid)
                    if bucket is None:
                        bucket = buckets[gid] = deque()
                    bucket.append(
                        (child, op_q[op_off[child] : op_off[child + 1]])
                    )
                    n_ready += 1
        scheduled += len(placed_this_ts)
        if not placed_this_ts:  # pragma: no cover - defensive
            raise RuntimeError("RCP made no progress (scheduler bug)")
        yield regions


def _pick_max_weight(
    gate_names: Sequence[str],
    buckets: Dict[int, Deque[Tuple[int, Sequence[int]]]],
    available: List[int],
    location: Dict[int, int],
    slack: Sequence[int],
    w: RCPWeights,
) -> Tuple[int, int]:
    """The paper's ``getMaxWeightSimdOpType`` over the bucketed ready
    set: the (region, gate id) pair maximising the scheduling priority,
    ties broken by (gate name, region index).

    For each ready op the candidate regions are the op's resident
    regions (at most its operand count) plus the lowest-index available
    region with zero residency — every other region yields the same
    weight as the zero-residency representative but a larger index, so
    the tie-break can never prefer it.
    """
    w_op, w_dist, w_slack = w.w_op, w.w_dist, w.w_slack
    loc_get = location.get
    avail_set = set(available)
    best_weight = float("-inf")
    best_gate: Optional[str] = None
    best_gid = -1
    best_region = -1
    for gid, bucket in buckets.items():
        gate = gate_names[gid]
        type_term = w_op * len(bucket)
        for node, qids in bucket:
            base = type_term - w_slack * slack[node]
            resident: Dict[int, int] = {}
            for q in qids:
                r = loc_get(q)
                if r is not None:
                    resident[r] = resident.get(r, 0) + 1
            for r, count in resident.items():
                if r not in avail_set:
                    continue
                weight = base + w_dist * count
                if weight > best_weight or (
                    weight == best_weight
                    and (gate, r) < (best_gate, best_region)
                ):
                    best_weight = weight
                    best_gate = gate
                    best_gid = gid
                    best_region = r
            for r in available:
                if r not in resident:
                    # Lowest-index zero-residency region; all others
                    # score the same weight with a larger index.
                    if base > best_weight or (
                        base == best_weight
                        and (gate, r) < (best_gate, best_region)
                    ):
                        best_weight = base
                        best_gate = gate
                        best_gid = gid
                        best_region = r
                    break
    assert best_gate is not None
    return best_region, best_gid
