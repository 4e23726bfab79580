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
kernel keeps the ready set *bucketed by gate type* in a list indexed
by gate id (arrival order preserved within each bucket), so type
prevalence is a bucket length and batch extraction pops one bucket
instead of rescanning the whole ready deque. The (region, gate)
selection runs inline, with no helper call per op: it enumerates each ready
op's resident regions (at most its operand count; a one-operand op
reads its one location) plus one zero-residency representative
instead of every available region, and breaks weight ties on one
integer key built from precomputed gate-name ranks. The
pre-optimization implementation is kept in ``tests/oracle/``; both
produce bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..arch.machine import check_shape
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
    check_shape(k, d)
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
    list is non-empty. The caller checks the machine shape
    (:func:`~repro.arch.machine.check_shape`).
    """
    w = weights or RCPWeights()
    w_op, w_dist, w_slack = w.w_op, w.w_dist, w.w_slack
    n = cols.n
    gate_ids = cols.gate_ids
    op_q, op_off = cols.op_q, cols.op_off
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    gate_names = cols.gate_names
    n_gates = len(gate_names)
    # Weight ties go to the smallest (gate name, region): one int key,
    # name rank * k + region.
    by_name = {name: r for r, name in enumerate(sorted(gate_names))}
    tie_base = [by_name[name] * k for name in gate_names]
    # Ready set, bucketed by gate id. Within a bucket nodes keep arrival
    # order, which is all batch extraction needs; the bucket length
    # doubles as the type-prevalence count. Each entry carries the
    # node's operand qubit ids and its slack term, computed once on
    # arrival rather than on every priority scan.
    buckets: List[Deque[Tuple[int, Sequence[int], float]]] = [
        deque() for _ in range(n_gates)
    ]
    n_ready = 0
    for node in range(n):
        if not indeg[node]:
            buckets[gate_ids[node]].append(
                (
                    node,
                    op_q[op_off[node] : op_off[node + 1]],
                    w_slack * slack[node],
                )
            )
            n_ready += 1
    # Region of last activity per qubit id; ``k`` = global memory
    # (Section 3.2: all qubits start there), a slot ``avail`` never
    # offers.
    location = [k] * len(cols.qubits)
    inf = float("inf")
    scheduled = 0

    while scheduled < n:
        regions: Dict[int, List[int]] = {}
        available = list(range(k))
        avail = bytearray(b"\x01") * k + b"\x00"
        placed: List[int] = []
        while available and n_ready:
            # getMaxWeightSimdOpType: each ready op scores its resident
            # available regions, plus the lowest-index available region
            # without its operands; every other region scores the same
            # as that one with a larger index, so it never wins a tie.
            best_weight = -inf
            best_tie = -1
            best_gid = best_region = -1
            a0 = available[0]
            a1 = available[1] if len(available) > 1 else -1
            for gid in range(n_gates):
                bucket = buckets[gid]
                if not bucket:
                    continue
                type_term = w_op * len(bucket)
                tie0 = tie_base[gid]
                for node, qids, slack_term in bucket:
                    base = type_term - slack_term
                    if len(qids) == 1:
                        r = location[qids[0]]
                        if avail[r]:
                            weight = base + w_dist
                            if weight > best_weight or (
                                weight == best_weight and tie0 + r < best_tie
                            ):
                                best_weight = weight
                                best_tie = tie0 + r
                                best_gid = gid
                                best_region = r
                        z = a1 if r == a0 else a0
                    else:
                        # A region named twice scores twice, equally.
                        regs = [location[q] for q in qids]
                        for r in regs:
                            if avail[r]:
                                weight = base + w_dist * regs.count(r)
                                if weight > best_weight or (
                                    weight == best_weight
                                    and tie0 + r < best_tie
                                ):
                                    best_weight = weight
                                    best_tie = tie0 + r
                                    best_gid = gid
                                    best_region = r
                        z = -1
                        for r in available:
                            if r not in regs:
                                z = r
                                break
                    if z >= 0 and (
                        base > best_weight
                        or (base == best_weight and tie0 + z < best_tie)
                    ):
                        best_weight = base
                        best_tie = tie0 + z
                        best_gid = gid
                        best_region = z
            assert best_gid >= 0
            bucket = buckets[best_gid]
            take = len(bucket) if d is None else min(d, len(bucket))
            batch = []
            for _ in range(take):
                node, qids, _ = bucket.popleft()
                batch.append(node)
                for q in qids:
                    location[q] = best_region
            n_ready -= take
            regions[best_region] = batch
            placed += batch
            available.remove(best_region)
            avail[best_region] = 0
        # Ready-list update: children whose last dependency completed
        # this timestep become ready for the *next* timestep.
        for node in placed:
            for child in succ_flat[succ_off[node] : succ_off[node + 1]]:
                indeg[child] -= 1
                if not indeg[child]:
                    buckets[gate_ids[child]].append(
                        (
                            child,
                            op_q[op_off[child] : op_off[child + 1]],
                            w_slack * slack[child],
                        )
                    )
                    n_ready += 1
        scheduled += len(placed)
        if not placed:  # pragma: no cover - defensive
            raise RuntimeError("RCP made no progress (scheduler bug)")
        yield regions
