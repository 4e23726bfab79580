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
with :class:`_FreeList`: per-gate-type buckets plus an arrival FIFO,
with lazy deletion and incremental per-gate counts, so
most-common-gate is a counter read, oldest-gate amortizes to O(1), and
extraction touches only the requested bucket. Nodes become ready
exactly once, so lazily dropped stale entries never resurface. Path
membership and completion are byte flags, so the kernel holds no
per-node boxed objects. The pre-optimization implementation is kept
in ``tests/oracle/``; both produce bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set

from ..core.dag import DependenceDAG
from ..instrument import spanned
from .types import Schedule

__all__ = ["lpfs_timesteps", "schedule_lpfs"]


class _FreeList:
    """Bucketed lazy-deletion ready set for LPFS, keyed by gate id.

    ``in_ready`` is the authoritative membership; ``buckets`` (per gate
    type, arrival order) and ``fifo`` (global arrival order) may hold
    stale entries, dropped when encountered. ``counts[g]`` is the live
    in-ready count per gate; ``path_counts[g]`` the live in-ready count
    claimed by a pinned path — the difference is the free-list size per
    gate, which answers ``most_common`` without a rescan. Name-ordered
    tie-breaks resolve through the intern table.
    """

    __slots__ = (
        "gate_ids",
        "gate_names",
        "on_path",
        "in_ready",
        "buckets",
        "fifo",
        "counts",
        "path_counts",
    )

    def __init__(self, cols, on_path: bytearray):
        self.gate_ids = cols.gate_ids
        self.gate_names = cols.gate_names
        self.on_path = on_path
        self.in_ready: Set[int] = set()
        self.buckets: Dict[int, Deque[int]] = {}
        self.fifo: Deque[int] = deque()
        self.counts: Dict[int, int] = {}
        self.path_counts: Dict[int, int] = {}

    def add(self, node: int) -> None:
        """A node's last dependency completed: it is now ready."""
        gid = self.gate_ids[node]
        bucket = self.buckets.get(gid)
        if bucket is None:
            bucket = self.buckets[gid] = deque()
        bucket.append(node)
        self.fifo.append(node)
        self.in_ready.add(node)
        self.counts[gid] = self.counts.get(gid, 0) + 1
        if self.on_path[node]:
            # A claimed path head just became ready.
            self.path_counts[gid] = self.path_counts.get(gid, 0) + 1

    def claim_mark(self, node: int) -> None:
        """A path claim just set ``on_path[node]``."""
        if node in self.in_ready:
            gid = self.gate_ids[node]
            self.path_counts[gid] = self.path_counts.get(gid, 0) + 1

    def remove_scheduled(self, node: int) -> None:
        """``node`` was scheduled outside extraction (path head or
        progress-guard fallback); its bucket/FIFO entries go stale."""
        if node in self.in_ready:
            self.in_ready.discard(node)
            gid = self.gate_ids[node]
            self.counts[gid] -= 1
            if self.on_path[node]:
                self.path_counts[gid] -= 1

    def extract(self, gid: int, cap: Optional[int]) -> List[int]:
        """Pull up to ``cap`` live, non-path ops of gate ``gid`` in
        arrival order (all of them when ``cap`` is None)."""
        bucket = self.buckets.get(gid)
        if not bucket:
            return []
        limit = len(bucket) if cap is None else cap
        if limit <= 0:
            return []
        in_ready = self.in_ready
        on_path = self.on_path
        batch: List[int] = []
        stash: List[int] = []
        while bucket and len(batch) < limit:
            node = bucket.popleft()
            if node not in in_ready:
                continue  # stale entry: dropped for good
            if on_path[node]:
                stash.append(node)  # path-claimed: keep, in order
                continue
            batch.append(node)
            in_ready.discard(node)
        if stash:
            bucket.extendleft(reversed(stash))
        if not bucket:
            del self.buckets[gid]
        if batch:
            self.counts[gid] -= len(batch)
        return batch

    def most_common(self) -> Optional[int]:
        """Gate id with the most free (live, non-path) ready ops; ties
        go to the lexicographically largest name."""
        path_counts = self.path_counts
        gate_names = self.gate_names
        best_gid: Optional[int] = None
        best_name: Optional[str] = None
        best_free = 0
        for gid, count in self.counts.items():
            free = count - path_counts.get(gid, 0)
            if free <= 0:
                continue
            name = gate_names[gid]
            if free > best_free or (free == best_free and name > best_name):
                best_free = free
                best_gid = gid
                best_name = name
        return best_gid

    def oldest(self) -> Optional[int]:
        """Gate id of the oldest free ready op (FIFO order)."""
        fifo = self.fifo
        in_ready = self.in_ready
        on_path = self.on_path
        # Fast path: pop stale heads in place; a live, non-path head
        # answers without any reordering.
        while fifo:
            node = fifo[0]
            if node not in in_ready:
                fifo.popleft()
                continue  # stale entry: dropped for good
            if not on_path[node]:
                return self.gate_ids[node]
            break
        else:
            return None
        # A live path head blocks the front: scan past it with a stash.
        stash: List[int] = []
        gid: Optional[int] = None
        while fifo:
            node = fifo.popleft()
            if node not in in_ready:
                continue
            stash.append(node)
            if not on_path[node]:
                gid = self.gate_ids[node]
                break
        if stash:
            fifo.extendleft(reversed(stash))
        return gid

    def fallback_pop(self) -> Optional[int]:
        """Pop the oldest live ready op (path-claimed or not) for the
        progress guard. Removes it from the ready set."""
        fifo = self.fifo
        while fifo:
            node = fifo.popleft()
            if node in self.in_ready:
                self.remove_scheduled(node)
                return node
        return None


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
    list is non-empty. ``1 <= l <= k`` is the caller's to check.
    """
    n = cols.n
    gate_ids = cols.gate_ids
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    on_path = bytearray(n)
    done = bytearray(n)
    free_list = _FreeList(cols, on_path)
    for node in [i for i in range(n) if not indeg[i]]:
        free_list.add(node)
    paths: List[Deque[int]] = [
        _claim_longest_path(cols, heights, free_list, done)
        for _ in range(l)
    ]

    scheduled = 0
    while scheduled < n:
        regions: Dict[int, List[int]] = {}
        placed: List[int] = []
        # --- allocated (path-pinned) regions -----------------------------
        for i in range(l):
            if refill and not paths[i]:
                paths[i] = _claim_longest_path(
                    cols, heights, free_list, done
                )
            path = paths[i]
            if path and path[0] in free_list.in_ready:
                head = path.popleft()
                free_list.remove_scheduled(head)
                on_path[head] = 0
                group = regions[i] = [head]
                placed.append(head)
                if simd:
                    cap = None if d is None else d - 1
                    batch = free_list.extract(gate_ids[head], cap)
                    group.extend(batch)
                    placed.extend(batch)
            elif simd:
                # Path empty or stalled: execute free-list ops instead.
                gid = free_list.most_common()
                if gid is not None:
                    batch = free_list.extract(gid, d)
                    if batch:
                        regions[i] = batch
                        placed.extend(batch)
        # --- unallocated regions: drain the free list --------------------
        for i in range(l, k):
            gid = free_list.oldest()
            if gid is None:
                break
            batch = free_list.extract(gid, d)
            if batch:
                regions[i] = batch
                placed.extend(batch)
        # --- progress guard ----------------------------------------------
        # With k == l and SIMD off, free-list ops have no region to run
        # in; fall back to executing the oldest ready op in region 0 so
        # the schedule always completes (deviation noted in DESIGN.md).
        if not placed:
            node = free_list.fallback_pop()
            if node is None:  # pragma: no cover - defensive
                raise RuntimeError("LPFS deadlock (scheduler bug)")
            on_path[node] = 0
            for i in range(l):
                if paths[i] and paths[i][0] == node:
                    paths[i].popleft()
            regions[0] = [node]
            placed.append(node)
        # --- ready-list update -------------------------------------------
        for node in placed:
            done[node] = 1
            for j in range(succ_off[node], succ_off[node + 1]):
                child = succ_flat[j]
                indeg[child] -= 1
                if indeg[child] == 0 and child not in free_list.in_ready:
                    free_list.add(child)
        scheduled += len(placed)
        yield regions


def _claim_longest_path(
    cols,
    heights: Sequence[int],
    free_list: _FreeList,
    done: bytearray,
) -> Deque[int]:
    """``getNextLongestPath``: the longest chain rooted in the current
    ready list, truncated if it runs into a node already claimed by
    another path or already scheduled. Claims its nodes in
    ``on_path``. The strict-max key ``(height, -node)`` makes the
    claim independent of the ready set's iteration order."""
    on_path = free_list.on_path
    candidates = [n for n in free_list.in_ready if not on_path[n]]
    if not candidates:
        return deque()
    start = max(candidates, key=lambda n: (heights[n], -n))
    path: Deque[int] = deque()
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    node: Optional[int] = start
    while node is not None and not on_path[node] and not done[node]:
        path.append(node)
        on_path[node] = 1
        free_list.claim_mark(node)
        lo, hi = succ_off[node], succ_off[node + 1]
        node = (
            max(succ_flat[lo:hi], key=lambda s: (heights[s], -s))
            if lo < hi
            else None
        )
    return path
