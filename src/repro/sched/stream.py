"""Windowed columnar scheduling for paper-scale leaf bodies.

The materialized pipeline spends ~1 KiB per gate: each op is a boxed
``Operation`` with a qubit tuple, and the DAG holds per-node Python
lists. At the paper's 10^7-gate leaves that is tens of GiB. This
module runs the *same algorithms* over a columnar encoding at ~50 B
per gate:

* gates are interned ids in an ``array('H')``;
* operands are interned qubit ids in one flat ``array('i')`` plus an
  offsets array (CSR layout);
* a leaf arrives int-coded: a :class:`~repro.passes.stream.LeafStream`
  (what :func:`~repro.passes.stream.leaf_stream` returns) is spliced
  from per-module templates without boxing an ``Operation`` per gate,
  and any other :class:`~repro.core.opstream.OpStream` is interned op
  by op into the same arrays;
* dependence edges — those of :func:`repro.core.dag._build_edges_fast`,
  each op to the next op on each operand — come from one backward
  pass over a per-qubit next-user map, straight into the CSR successor
  table and in-degrees;
* heights/depths/slack are ``array('i')`` passes over the CSR tables.

``window`` governs the *ingestion* memory granularity of a caller-built
stream (a :class:`~repro.core.opstream.ListStream`, a
:class:`~repro.core.opstream.GeneratorStream`): it bounds how many
boxed ``Operation`` objects are ever alive while the columns are built
(``None`` materializes the whole stream first — the materialized
pipeline's ingest profile). A ``LeafStream`` boxes no ops, so the
window does not change its ingest. Neither source can affect the
emitted schedule: every window and both sources produce identical
columns, and the schedulers run on the columns alone. That is the
streaming pipeline's window-invariance guarantee, and it is exactly
why the streamed schedules are bit-for-bit the schedules of the
materialized pipeline: there is one kernel per algorithm.
:func:`schedule_columns` runs :func:`repro.sched.rcp.rcp_timesteps`,
:func:`repro.sched.lpfs.lpfs_timesteps` and
:func:`repro.sched.sequential.sequential_timesteps` over the columns —
the same kernels :func:`~repro.sched.rcp.schedule_rcp` and friends run
over a DAG's int-coded view — into the same flat
:class:`~repro.sched.types.Schedule`, whose ``dag`` is ``None`` here
(its nodes index the columns). Movement derivation is one builder too:
:func:`derive_movement_stream` and :func:`iter_schedule_epochs` run
:func:`repro.sched.comm.schedule_epochs` over the columns, as
:func:`repro.sched.comm.derive_movement` runs it over a DAG's
int-coded view. ``tests/test_stream_sched.py`` and the differential
battery check the equivalence end to end.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..arch.machine import MultiSIMD, check_shape
from ..core.operation import Operation
from ..core.opstream import OpStream, iter_chunks
from ..core.qubits import Qubit
from ..instrument import spanned
from ..passes.stream import IntCodedBody, LeafStream
from .comm import CommStats, schedule_epochs
from .lpfs import lpfs_timesteps
from .rcp import RCPWeights, rcp_timesteps
from .sequential import sequential_timesteps
from .types import Move, Regions, Schedule

__all__ = [
    "StreamColumns",
    "build_columns",
    "schedule_columns",
    "derive_movement_stream",
    "iter_schedule_epochs",
    "engine_epochs",
]


class StreamColumns:
    """Columnar form of one leaf body plus its dependence structure.

    Node ids are statement indices ``0..n-1`` in program order, exactly
    as in :class:`~repro.core.dag.DependenceDAG`. Qubits and gate names
    are interned; the boxed ops themselves are not retained.
    """

    def __init__(self) -> None:
        self.n = 0
        self.gate_names: List[str] = []
        self.gate_ids = array("H")
        self.qubits: List[Qubit] = []
        self.op_q = array("i")  # flattened operand qubit ids
        self.op_off = array("i", [0])
        self.angles: Dict[int, float] = {}
        # CSR successor table (built by finalize; preds are transient).
        self.succ_flat = array("i")
        self.succ_off = array("i")
        self.indeg_base = array("i")
        self._heights: Optional[array] = None
        self._depths: Optional[array] = None
        self._slack: Optional[array] = None

    # -- shape ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def operands(self, node: int) -> Tuple[int, ...]:
        return tuple(self.op_q[self.op_off[node] : self.op_off[node + 1]])

    def gate_of(self, node: int) -> str:
        return self.gate_names[self.gate_ids[node]]

    def operation(self, node: int) -> Operation:
        """Rebox one node as an :class:`Operation` (timelines, replay)."""
        return Operation(
            self.gate_of(node),
            tuple(
                self.qubits[self.op_q[j]]
                for j in range(self.op_off[node], self.op_off[node + 1])
            ),
            self.angles.get(node),
        )

    def sources(self) -> Iterator[int]:
        indeg = self.indeg_base
        return (i for i in range(self.n) if not indeg[i])

    def indegrees(self) -> array:
        """Fresh in-degree array (consumed by the list schedulers)."""
        return array("i", self.indeg_base)

    # -- longest-path analyses (DependenceDAG's, over CSR) ---------------

    def heights(self) -> array:
        if self._heights is None:
            n = self.n
            h = array("i", bytes(4 * n))
            succ_flat, succ_off = self.succ_flat, self.succ_off
            for i in range(n - 1, -1, -1):
                below = 0
                for j in range(succ_off[i], succ_off[i + 1]):
                    hs = h[succ_flat[j]]
                    if hs > below:
                        below = hs
                h[i] = 1 + below
            self._heights = h
        return self._heights

    def depths(self) -> array:
        # Forward relaxation over successor edges (all edges point
        # forward in program order): when node i is visited, d[i]
        # already holds the max depth over its predecessors — the same
        # recurrence DependenceDAG.depths computes over preds, which
        # this class frees after transposition.
        if self._depths is None:
            n = self.n
            d = array("i", bytes(4 * n))
            succ_flat, succ_off = self.succ_flat, self.succ_off
            for i in range(n):
                di = d[i] + 1
                d[i] = di
                for j in range(succ_off[i], succ_off[i + 1]):
                    s = succ_flat[j]
                    if di > d[s]:
                        d[s] = di
            self._depths = d
        return self._depths

    def critical_path_length(self) -> int:
        # The tallest height is the longest chain, as the deepest depth
        # is; LPFS reads heights anyway, so no depths pass is needed.
        return max(self.heights(), default=0)

    def slack(self) -> array:
        if self._slack is None:
            cp = self.critical_path_length()
            d, h = self.depths(), self.heights()
            self._slack = array(
                "i", (cp - (d[i] + h[i] - 1) for i in range(self.n))
            )
        return self._slack

    def release_graph(self) -> None:
        """Drop the dependence structure once scheduling is done —
        movement derivation only reads operands and the schedule."""
        self.succ_flat = array("i")
        self.succ_off = array("i")
        self._heights = self._depths = self._slack = None


@spanned("stream:build_columns")
def build_columns(
    stream: OpStream, window: Optional[int] = None
) -> StreamColumns:
    """Ingest a leaf into columns.

    A :class:`~repro.passes.stream.LeafStream` (what
    :func:`~repro.passes.stream.leaf_stream` returns) is taken
    int-coded, spliced from per-module templates; it boxes no ops, so
    ``window`` does not change its ingest. Any other stream is interned
    ``window`` ops at a time. Both sources then go through one edge
    builder (:func:`_link_columns`), and give equal columns for the
    same op sequence.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1 or None, got {window}")
    body = stream.int_coded() if isinstance(stream, LeafStream) else None
    if body is None:
        body = IntCodedBody()
        for chunk in iter_chunks(stream, window):
            body.extend_ops(chunk)
            # Chunk ops die here; a finite window bounds the boxed ops
            # alive at once.
            del chunk
    cols = StreamColumns()
    cols.n = len(body)
    cols.gate_names = body.gate_names
    cols.gate_ids = body.gate_ids
    cols.qubits = body.qubits
    cols.op_q = body.op_q
    cols.op_off = array("i", accumulate(body.arity, initial=0))
    cols.angles = body.angles
    _link_columns(cols, body.arity)
    return cols


def _link_columns(cols: StreamColumns, arity: array) -> None:
    """Fill ``cols``' CSR successor table and in-degrees.

    The dependence edges of :func:`repro.core.dag._build_edges_fast`
    (each op to the next op on each of its operands), found in one
    backward pass over a per-qubit next-user map: each op's successors
    come out deduplicated and are written descending, so reversing the
    flat table at the end yields ascending lists in node order — the
    DAG's append order. An in-degree is the number of distinct ops
    that list a node. Every buffer is an ``array``.
    """
    n = cols.n
    op_q = cols.op_q
    nxt = array("i", [-1]) * len(cols.qubits)
    succ_rev = array("i")
    put = succ_rev.append
    succ_cnt = array("i", bytes(4 * n))
    indeg = array("i", bytes(4 * n))
    j = len(op_q)
    i = n
    for a in reversed(arity):
        i -= 1
        j -= a
        if a == 1:
            q = op_q[j]
            s = nxt[q]
            nxt[q] = i
            if s >= 0:
                put(s)
                succ_cnt[i] = 1
                indeg[s] += 1
        elif a == 2:
            q0 = op_q[j]
            q1 = op_q[j + 1]
            s0 = nxt[q0]
            s1 = nxt[q1]
            nxt[q0] = nxt[q1] = i
            if s0 < 0 or s0 == s1:
                if s1 >= 0:
                    put(s1)
                    succ_cnt[i] = 1
                    indeg[s1] += 1
            elif s1 < 0:
                put(s0)
                succ_cnt[i] = 1
                indeg[s0] += 1
            else:
                if s0 > s1:
                    put(s0)
                    put(s1)
                else:
                    put(s1)
                    put(s0)
                succ_cnt[i] = 2
                indeg[s0] += 1
                indeg[s1] += 1
        else:
            succs = set()
            for k in range(j, j + a):
                q = op_q[k]
                s = nxt[q]
                if s >= 0:
                    succs.add(s)
                nxt[q] = i
            if succs:
                succ_cnt[i] = len(succs)
                for s in sorted(succs, reverse=True):
                    put(s)
                    indeg[s] += 1
    succ_rev.reverse()
    cols.succ_flat = succ_rev
    cols.succ_off = array("i", accumulate(succ_cnt, initial=0))
    cols.indeg_base = indeg


@spanned("stream:schedule")
def schedule_columns(
    cols: StreamColumns,
    algorithm: str,
    k: int,
    d: Optional[int] = None,
    lpfs_l: int = 1,
    lpfs_simd: bool = True,
    lpfs_refill: bool = True,
    rcp_weights: Optional[RCPWeights] = None,
) -> Schedule:
    """Schedule columns with the named algorithm's kernel (same option
    surface as :class:`repro.toolflow.SchedulerConfig`, including the
    l <= k clamp). The result is a columnar :class:`Schedule`
    (``dag=None``): its nodes index ``cols``."""
    check_shape(k, d)
    if algorithm == "sequential":
        timesteps = sequential_timesteps(cols.n)
    elif algorithm == "rcp":
        timesteps = rcp_timesteps(
            cols, cols.indegrees(), cols.slack(), k, d, rcp_weights
        )
    elif algorithm == "lpfs":
        n_paths = min(lpfs_l, k)
        if n_paths < 1:
            raise ValueError(
                f"need 1 <= l <= k, got l={n_paths}, k={k}"
            )
        timesteps = lpfs_timesteps(
            cols, cols.indegrees(), cols.heights(), k, d, n_paths,
            lpfs_simd, lpfs_refill,
        )
    else:
        raise ValueError(f"unknown scheduling algorithm: {algorithm!r}")
    out = Schedule(None, k, d, algorithm)
    for regions in timesteps:
        out.append_timestep(regions)
    return out


# ---------------------------------------------------------------------------
# Movement derivation (over sched.comm.schedule_epochs)
# ---------------------------------------------------------------------------


def iter_schedule_epochs(
    cols: StreamColumns,
    sched: Schedule,
    machine: MultiSIMD,
    stats: CommStats,
) -> Iterator[Tuple[int, List[Move], Regions]]:
    """Derive movement epoch-at-a-time, yielding ``(t, moves,
    regions)`` per timestep (as :meth:`Schedule.iter_timesteps` does)
    and accumulating into ``stats``. Peak memory is the movement
    kernel's operand-use stream — 3 B per operand use (qubit id,
    region, next-use region) while qubits and regions number at most
    256 and 128, and 4 B per timestep — never the epochs themselves.
    """
    epochs = schedule_epochs(cols, sched, machine, stats)
    for t, (epoch, regions) in enumerate(sched.iter_timesteps(epochs)):
        yield t, epoch, regions


@spanned("stream:derive_movement")
def derive_movement_stream(
    cols: StreamColumns,
    sched: Schedule,
    machine: MultiSIMD,
    sink: Optional[Callable[[int, List[Move], Regions], None]] = None,
) -> CommStats:
    """Derive the movement of columnar ``sched`` and return the
    communication profile; ``sink`` (if given) observes each epoch as
    it retires, as ``sink(t, moves, regions)`` — the out-of-core export
    hook. Without a sink no region list is built and no epoch is
    kept."""
    stats = CommStats()
    if sink is None:
        for _ in schedule_epochs(cols, sched, machine, stats):
            pass
    else:
        for t, epoch, regions in iter_schedule_epochs(
            cols, sched, machine, stats
        ):
            sink(t, epoch, regions)
    return stats


def engine_epochs(
    cols: StreamColumns,
    sched: Schedule,
    machine: MultiSIMD,
) -> Iterator[Tuple[List[Move], List[Tuple[int, str, int]]]]:
    """Adapt :func:`iter_schedule_epochs` to the engine's streamed
    input shape: ``(moves, [(region, gate_name, op_count), ...])`` per
    timestep, ready for
    :func:`repro.engine.executor.run_schedule_stream`. The movement is
    derived on the fly; nothing is inflated."""
    stats = CommStats()
    gate_names = cols.gate_names
    gate_ids = cols.gate_ids
    for _, epoch, regions in iter_schedule_epochs(
        cols, sched, machine, stats
    ):
        yield epoch, [
            (r, gate_names[gate_ids[nodes[0]]], len(nodes))
            for r, nodes in regions
        ]



