"""Windowed columnar scheduling for paper-scale leaf bodies.

The materialized pipeline spends ~1 KiB per gate: each op is a boxed
``Operation`` with a qubit tuple, the DAG holds per-node Python lists,
and the schedulers copy those into per-timestep region lists. At the
paper's 10^7-gate leaves that is tens of GiB. This module runs the
*same algorithms* over a columnar encoding at ~50 B per gate:

* gates are interned ids in an ``array('H')``;
* operands are interned qubit ids in one flat ``array('i')`` plus an
  offsets array (CSR layout);
* dependence edges are ingested op-by-op from an
  :class:`~repro.core.opstream.OpStream` with the same per-qubit
  last-writer map as :func:`repro.core.dag._build_edges_fast`, into a
  CSR predecessor table that is transposed to successors by counting
  sort and then freed;
* heights/depths/slack are ``array('i')`` passes over the CSR tables.

``window`` governs the *ingestion* memory granularity: it bounds how
many boxed ``Operation`` objects are ever alive while the columns are
built (``None`` materializes the whole stream first — the materialized
pipeline's ingest profile). It cannot affect the emitted schedule:
every window produces identical columns, and the schedulers run on the
columns alone. That is the streaming pipeline's window-invariance
guarantee, and it is exactly why the streamed schedules are bit-for-bit
the schedules of the materialized pipeline: there is one kernel per
algorithm. :func:`schedule_columns` runs
:func:`repro.sched.rcp.rcp_timesteps`,
:func:`repro.sched.lpfs.lpfs_timesteps` and
:func:`repro.sched.sequential.sequential_timesteps` over the columns —
the same kernels :func:`~repro.sched.rcp.schedule_rcp` and friends run
over a DAG's int-coded view. Movement derivation is one kernel, two
adapters too: :func:`iter_schedule_epochs` runs
:func:`repro.sched.comm.movement_epochs` — the kernel
:func:`repro.sched.comm.derive_movement` also drains — over the
columns. ``tests/test_stream_sched.py`` and the differential battery
check the equivalence end to end.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..arch.machine import MultiSIMD
from ..core.dag import DependenceDAG
from ..core.operation import Operation
from ..core.opstream import OpStream, iter_chunks
from ..core.qubits import Qubit
from ..instrument import spanned
from .comm import CommStats, movement_epochs
from .lpfs import lpfs_timesteps
from .rcp import RCPWeights, rcp_timesteps
from .sequential import sequential_timesteps
from .types import Move, Schedule

__all__ = [
    "StreamColumns",
    "build_columns",
    "StreamedSchedule",
    "schedule_columns",
    "derive_movement_stream",
    "iter_schedule_epochs",
    "engine_epochs",
    "to_schedule",
]

_MAX_NODES = 2**31 - 1
_MAX_GATES = 2**16
_MAX_REGIONS = 2**16


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
        """Rebox one node as an :class:`Operation` (tests, inflation)."""
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
        return max(self.depths(), default=0)

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
    """Ingest a leaf stream into columns, ``window`` ops at a time.

    The per-qubit last-writer map, inline <=3-element dedup and sort
    mirror :func:`repro.core.dag._build_edges_fast` exactly; successor
    lists come out in ascending node order (counting sort over the
    predecessor table), matching the DAG's append order.
    """
    cols = StreamColumns()
    gate_table: Dict[str, int] = {}
    qubit_table: Dict[Qubit, int] = {}
    gate_names = cols.gate_names
    gate_ids = cols.gate_ids
    qubits = cols.qubits
    op_q = cols.op_q
    op_off = cols.op_off
    angles = cols.angles
    pred_flat = array("i")
    pred_off = array("i", [0])
    last_touch: Dict[int, int] = {}
    get_last = last_touch.get
    n = 0
    for chunk in iter_chunks(stream, window):
        for op in chunk:
            gid = gate_table.get(op.gate)
            if gid is None:
                gid = gate_table[op.gate] = len(gate_names)
                if gid >= _MAX_GATES:
                    raise OverflowError(
                        f"more than {_MAX_GATES} distinct gate names"
                    )
                gate_names.append(op.gate)
            plist: List[int] = []
            for q in op.qubits:
                qid = qubit_table.get(q)
                if qid is None:
                    qid = qubit_table[q] = len(qubits)
                    qubits.append(q)
                op_q.append(qid)
                prev = get_last(qid)
                if prev is not None and prev not in plist:
                    plist.append(prev)
                last_touch[qid] = n
            if len(plist) > 1:
                plist.sort()
            pred_flat.extend(plist)
            pred_off.append(len(pred_flat))
            gate_ids.append(gid)
            op_off.append(len(op_q))
            if op.angle is not None:
                angles[n] = op.angle
            n += 1
            if n >= _MAX_NODES:
                raise OverflowError("leaf exceeds 2^31-1 operations")
        # Chunk ops die here; a finite window bounds peak boxed-op count.
        del chunk
    cols.n = n
    cols.indeg_base = array(
        "i", (pred_off[i + 1] - pred_off[i] for i in range(n))
    )
    # Transpose preds -> succs by counting sort. Node ids are appended
    # in ascending order, so each successor list is ascending — the
    # order _build_edges_fast produces.
    n_edges = len(pred_flat)
    succ_cnt = array("i", bytes(4 * n))
    for p in pred_flat:
        succ_cnt[p] += 1
    succ_off = array("i", bytes(4 * (n + 1)))
    run = 0
    for i in range(n):
        succ_off[i] = run
        run += succ_cnt[i]
    succ_off[n] = run
    cursor = array("i", succ_off[:n])
    succ_flat = array("i", bytes(4 * n_edges))
    for i in range(n):
        for j in range(pred_off[i], pred_off[i + 1]):
            p = pred_flat[j]
            succ_flat[cursor[p]] = i
            cursor[p] += 1
    cols.succ_flat = succ_flat
    cols.succ_off = succ_off
    return cols


class StreamedSchedule:
    """A schedule in flat arrays: ~10 B per op instead of per-timestep
    region lists of boxed ints.

    Entries are stored timestep-major, region-ascending, insertion order
    within a region — the order ``for r, nodes in enumerate(ts.regions)``
    iterates a materialized :class:`~repro.sched.types.Schedule`.
    """

    def __init__(self, k: int, d: Optional[int], algorithm: str):
        if k >= _MAX_REGIONS:
            raise OverflowError(f"k={k} exceeds region-id width")
        self.k = k
        self.d = d
        self.algorithm = algorithm
        self.ts_off = array("i", [0])
        self.flat_regions = array("H")
        self.flat_nodes = array("i")
        self.max_width = 0
        self.op_count = 0

    @property
    def length(self) -> int:
        return len(self.ts_off) - 1

    def append_timestep(self, regions: Dict[int, List[int]]) -> None:
        """Append one timestep's ``{region: nodes}`` map, as the
        scheduler kernels yield it (all lists non-empty)."""
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        for r in sorted(regions):
            nodes = regions[r]
            for node in nodes:
                flat_r.append(r)
                flat_n.append(node)
            self.op_count += len(nodes)
        self.ts_off.append(len(flat_n))
        if len(regions) > self.max_width:
            self.max_width = len(regions)

    def regions_at(self, t: int) -> List[Tuple[int, List[int]]]:
        """The non-empty regions of timestep ``t`` as ``(r, nodes)``,
        region-ascending (entries are stored grouped and sorted)."""
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        out: List[Tuple[int, List[int]]] = []
        j = self.ts_off[t]
        end = self.ts_off[t + 1]
        while j < end:
            r = flat_r[j]
            nodes: List[int] = []
            while j < end and flat_r[j] == r:
                nodes.append(flat_n[j])
                j += 1
            out.append((r, nodes))
        return out


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
) -> StreamedSchedule:
    """Schedule columns with the named algorithm's kernel (same option
    surface as :class:`repro.toolflow.SchedulerConfig`, including the
    l <= k clamp)."""
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
    out = StreamedSchedule(k, d, algorithm)
    for regions in timesteps:
        out.append_timestep(regions)
    return out


# ---------------------------------------------------------------------------
# Movement derivation (adapter over sched.comm.movement_epochs)
# ---------------------------------------------------------------------------


def iter_schedule_epochs(
    cols: StreamColumns,
    ssched: StreamedSchedule,
    machine: MultiSIMD,
    stats: CommStats,
) -> Iterator[Tuple[int, List[Move], List[Tuple[int, List[int]]]]]:
    """Derive movement epoch-at-a-time, yielding
    ``(t, moves, regions)`` per timestep and accumulating into
    ``stats``: :func:`~repro.sched.comm.movement_epochs` — the kernel
    :func:`~repro.sched.comm.derive_movement` also drains — run over
    the columns' CSR operands and ``ssched.regions_at``. Peak memory is
    the kernel's per-qubit use lists (one region id per operand slot),
    never the epochs themselves.
    """
    return movement_epochs(
        cols.qubits,
        cols.op_q,
        cols.op_off,
        ssched.length,
        ssched.regions_at,
        ssched.k,
        machine,
        stats,
    )


@spanned("stream:derive_movement")
def derive_movement_stream(
    cols: StreamColumns,
    ssched: StreamedSchedule,
    machine: MultiSIMD,
    sink: Optional[
        Callable[[int, List[Move], List[Tuple[int, List[int]]]], None]
    ] = None,
) -> CommStats:
    """Drain :func:`iter_schedule_epochs` and return the communication
    profile; ``sink`` (if given) observes each epoch as it retires —
    the out-of-core export hook."""
    stats = CommStats()
    for t, epoch, regions in iter_schedule_epochs(
        cols, ssched, machine, stats
    ):
        if sink is not None:
            sink(t, epoch, regions)
    return stats


def engine_epochs(
    cols: StreamColumns,
    ssched: StreamedSchedule,
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
        cols, ssched, machine, stats
    ):
        yield epoch, [
            (r, gate_names[gate_ids[nodes[0]]], len(nodes))
            for r, nodes in regions
            if nodes
        ]


# ---------------------------------------------------------------------------
# Inflation (tests / small inputs)
# ---------------------------------------------------------------------------


def to_schedule(cols: StreamColumns, ssched: StreamedSchedule) -> Schedule:
    """Inflate a streamed schedule to a boxed :class:`Schedule` (small
    inputs and the differential battery only — this rematerializes the
    full op list)."""
    statements = [cols.operation(i) for i in range(cols.n)]
    dag = DependenceDAG(statements)
    sched = Schedule(dag, k=ssched.k, d=ssched.d, algorithm=ssched.algorithm)
    for t in range(ssched.length):
        sched.append_timestep(dict(ssched.regions_at(t)))
    return sched
