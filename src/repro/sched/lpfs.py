"""Longest-Path-First Scheduling (LPFS) — the paper's Algorithm 2.

Many quantum benchmarks are mostly serial at the operation level
(critical-path speedup ~1.5x, Figure 6), so parallelism buys little —
but *communication* can be attacked by keeping the qubits of long serial
chains pinned in one region. LPFS dedicates ``l`` of the ``k`` SIMD
regions to the ``l`` longest dependence paths; operations on those paths
execute in their pinned region, so their qubits never move. Remaining
regions consume the *free list* (ready ops not on any pinned path) with
SIMD grouping by gate type.

Options (both enabled in the paper's experiments, with ``l = 1``):

* **SIMD** — a path region may also execute free-list ops of the same
  gate type as the path op (data parallelism), and may execute free-list
  ops outright when its path is stalled on a dependency;
* **Refill** — when a pinned path completes, the region is re-seeded
  with the longest path rooted in the current ready list.

Paths are chains (each node a DAG successor of the previous), so only a
path's *head* can ever be ready; heads stall until their off-path
dependencies resolve.

One kernel per algorithm: :func:`lpfs_timesteps` is the package's only
LPFS, over an int-coded view — :meth:`repro.core.dag.DependenceDAG.columns`
or :class:`repro.sched.stream.StreamColumns`. :func:`schedule_lpfs` and
:func:`repro.sched.stream.schedule_columns` are its two adapters. The
kernel replaces the single ready deque (rescanned per free-list query)
with per-gate-type buckets of free ready ops plus an arrival FIFO of
all ready ops, with lazy deletion and a free-op count per gate, so
most-common-gate is a scan of the per-gate counts, oldest-gate
amortizes to O(1), and extraction touches only the requested bucket.
Nodes become ready exactly once and a claimed node stays claimed until
it runs, so lazily dropped stale entries never resurface. All of this
state lives in the kernel's locals: lists indexed by gate id, and
readiness and path membership as byte flags indexed by node, so the
kernel holds no per-node boxed objects and makes no helper call per
op. Name-ordered tie-breaks compare integer name ranks. The
pre-optimization implementation is kept in ``tests/oracle/``; both
produce bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence

from ..arch.machine import check_shape
from ..core.dag import DependenceDAG
from ..instrument import spanned
from .types import Schedule

__all__ = ["lpfs_timesteps", "schedule_lpfs"]


@spanned("schedule:lpfs")
def schedule_lpfs(
    dag: DependenceDAG,
    k: int,
    d: Optional[int] = None,
    l: int = 1,
    simd: bool = True,
    refill: bool = True,
) -> Schedule:
    """Schedule ``dag`` on a Multi-SIMD(k,d) machine with LPFS.

    Args:
        k: SIMD region count.
        d: per-region data-parallel cap (None = unbounded).
        l: number of regions pinned to longest paths (1 <= l <= k).
        simd: enable opportunistic SIMD fill in path regions.
        refill: re-seed a path region when its path completes.
    """
    check_shape(k, d)
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    sched = Schedule(dag, k=k, d=d, algorithm="lpfs")
    for regions in lpfs_timesteps(
        dag.columns(), dag.indegrees(), dag.heights(), k, d, l, simd,
        refill,
    ):
        sched.append_timestep(regions)
    return sched


def lpfs_timesteps(
    cols,
    indeg: List[int],
    heights: Sequence[int],
    k: int,
    d: Optional[int] = None,
    l: int = 1,
    simd: bool = True,
    refill: bool = True,
) -> Iterator[Dict[int, List[int]]]:
    """Algorithm 2 over int-coded columns, one timestep at a time.

    ``cols`` is a DAG's :meth:`~repro.core.dag.DependenceDAG.columns`
    view or a :class:`~repro.sched.stream.StreamColumns`; ``indeg`` is
    a fresh in-degree array (consumed) and ``heights`` the per-node
    heights. Yields each timestep's ``{region: nodes}`` map; every node
    list is non-empty. The caller checks the machine shape
    (:func:`~repro.arch.machine.check_shape`) and ``1 <= l <= k``.
    """
    n = cols.n
    gate_ids = cols.gate_ids
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    gate_names = cols.gate_names
    n_gates = len(gate_names)
    # Free-list ties go to the largest gate name: compare name ranks.
    by_name = {name: r for r, name in enumerate(sorted(gate_names))}
    rank = [by_name[name] for name in gate_names]
    ready = bytearray(n)
    on_path = bytearray(n)
    # The ready set. ``buckets[g]`` holds gate g's free (unclaimed)
    # ready nodes and ``fifo`` every ready node, both in arrival order.
    # Both hold stale entries, dropped for good when met: scheduled
    # nodes, and in a bucket also nodes claimed by a path after they
    # arrived. ``free[g]`` counts gate g's live bucket entries, the
    # free-list size per gate.
    buckets: List[Deque[int]] = [deque() for _ in range(n_gates)]
    fifo: Deque[int] = deque()
    free = [0] * n_gates
    for node in range(n):
        if not indeg[node]:
            ready[node] = 1
            gid = gate_ids[node]
            free[gid] += 1
            buckets[gid].append(node)
            fifo.append(node)
    paths: List[Deque[int]] = [
        _claim_longest_path(cols, heights, buckets, ready, on_path, free)
        for _ in range(l)
    ]
    head_cap = None if d is None else d - 1

    scheduled = 0
    while scheduled < n:
        regions: Dict[int, List[int]] = {}
        placed: List[int] = []
        for i in range(k):
            group: Optional[List[int]] = None
            cap = d
            if i < l:
                # Allocated region: its path's head, with SIMD fill.
                path = paths[i]
                if refill and not path:
                    path = paths[i] = _claim_longest_path(
                        cols, heights, buckets, ready, on_path, free
                    )
                if path and ready[path[0]]:
                    head = path.popleft()
                    ready[head] = on_path[head] = 0
                    gid = gate_ids[head]
                    group = regions[i] = [head]
                    placed.append(head)
                    if not simd:
                        continue
                    cap = head_cap
                elif simd:
                    # Path empty or stalled: run the most common free
                    # gate, ties to the largest name (free count, then
                    # rank, as one key).
                    gid = -1
                    best = n_gates - 1
                    for g in range(n_gates):
                        key = free[g] * n_gates + rank[g]
                        if key > best:
                            best = key
                            gid = g
                    if gid < 0:
                        continue
                else:
                    continue
            else:
                # Unallocated region: drain the free list, oldest gate
                # first. Every ready path head was placed in its own
                # region, so each live FIFO entry here is free.
                while fifo and not ready[fifo[0]]:
                    fifo.popleft()
                if not fifo:
                    break
                gid = gate_ids[fifo[0]]
            # Up to ``cap`` free ready nodes of ``gid``, in arrival order.
            bucket = buckets[gid]
            if not bucket:
                continue
            if cap is None or cap >= len(bucket):
                batch = [x for x in bucket if ready[x] and not on_path[x]]
                bucket.clear()
            else:
                batch = []
                while bucket and len(batch) < cap:
                    x = bucket.popleft()
                    if ready[x] and not on_path[x]:
                        batch.append(x)
            if batch:
                for x in batch:
                    ready[x] = 0
                free[gid] -= len(batch)
                placed += batch
                if group is None:
                    regions[i] = batch
                else:
                    group += batch
        # --- progress guard ----------------------------------------------
        # With k == l and SIMD off, free-list ops have no region to run
        # in; fall back to executing the oldest ready op in region 0 so
        # the schedule always completes (deviation noted in DESIGN.md).
        if not placed:
            while fifo and not ready[fifo[0]]:
                fifo.popleft()
            if not fifo:  # pragma: no cover - defensive
                raise RuntimeError("LPFS deadlock (scheduler bug)")
            node = fifo.popleft()
            ready[node] = 0
            if on_path[node]:
                on_path[node] = 0
                for path in paths:
                    if path and path[0] == node:
                        path.popleft()
            else:
                free[gate_ids[node]] -= 1
            regions[0] = [node]
            placed.append(node)
        # --- ready-list update -------------------------------------------
        for node in placed:
            for child in succ_flat[succ_off[node] : succ_off[node + 1]]:
                indeg[child] -= 1
                if not indeg[child]:
                    ready[child] = 1
                    fifo.append(child)
                    if not on_path[child]:
                        gid = gate_ids[child]
                        free[gid] += 1
                        buckets[gid].append(child)
        scheduled += len(placed)
        yield regions


def _claim_longest_path(
    cols,
    heights: Sequence[int],
    buckets: List[Deque[int]],
    ready: bytearray,
    on_path: bytearray,
    free: List[int],
) -> Deque[int]:
    """``getNextLongestPath``: the longest chain rooted in the current
    ready list, truncated if it runs into a node already claimed by
    another path. (It cannot run into a scheduled node: every node
    after the first waits on the one before it.) Claims its nodes in
    ``on_path``. The candidates are the free ready nodes, read off the
    buckets, whose stale entries this drops for good; the strict-max
    key ``(height, -node)`` makes the claim independent of their
    order."""
    candidates: List[int] = []
    for g, bucket in enumerate(buckets):
        if bucket:
            live = [x for x in bucket if ready[x] and not on_path[x]]
            if len(live) < len(bucket):
                buckets[g] = deque(live)
            candidates += live
    if not candidates:
        return deque()
    start = max(candidates, key=lambda x: (heights[x], -x))
    # The start is ready; its successors wait on it, so no other path
    # node is, and only the start leaves the free list.
    free[cols.gate_ids[start]] -= 1
    path: Deque[int] = deque()
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    node: Optional[int] = start
    while node is not None and not on_path[node]:
        path.append(node)
        on_path[node] = 1
        lo, hi = succ_off[node], succ_off[node + 1]
        node = (
            max(succ_flat[lo:hi], key=lambda s: (heights[s], -s))
            if lo < hi
            else None
        )
    return path
