"""Movement derivation and communication-aware runtime (Sections 3.2, 4.4).

The fine-grained schedulers place *operations*; the qubit movements those
placements imply are derived afterwards, following the paper's execution
model:

* an operand not resident in its op's region is teleported there in the
  movement epoch before the timestep;
* after a timestep, a qubit staying in a region that is *active* next
  timestep (executing other qubits' ops) must be evacuated — to the
  region's local scratchpad if its next op is in the same region and
  space remains (a 1-cycle ballistic move), otherwise to global memory
  by teleportation; idle regions double as passive storage;
* a movement epoch costs 4 cycles if it contains any teleport, 1 cycle
  if it contains only local moves, 0 if empty ("If any SIMD regions in a
  timestep have a global move, the full four cycle move time is
  retained").

The *naive movement model* — the baseline of Figures 7 and 8 — instead
charges a teleport epoch around every sequential gate: runtime = 5x the
gate count.

One kernel, :func:`movement_epochs`, implements the model over one
flat operand-use stream in schedule order (a qubit id and a region per
operand, plus use offsets per timestep) and the next-use regions one
backward pass derives from it. One builder, :func:`schedule_epochs`,
reads that stream off a :class:`~repro.sched.types.Schedule`'s flat
arrays and an int-coded view of its ops — a DAG's
:meth:`~repro.core.dag.DependenceDAG.columns` for
:func:`derive_movement`, a leaf's
:class:`~repro.sched.stream.StreamColumns` for
:func:`repro.sched.stream.derive_movement_stream` and
:func:`~repro.sched.stream.iter_schedule_epochs`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Sequence, Tuple

from ..arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    NAIVE_FACTOR,
    epoch_cycles,
    loc_label,
)
from ..arch.teleport import EPRAccounting
from ..core.qubits import Qubit
from ..instrument import spanned
from .types import Move, Schedule

__all__ = [
    "CommStats",
    "derive_movement",
    "movement_epochs",
    "naive_runtime",
    "schedule_epochs",
]


@dataclass
class CommStats:
    """Communication profile of one scheduled module.

    Attributes:
        gate_cycles: schedule length (1 cycle per timestep).
        comm_cycles: cycles added by movement epochs.
        runtime: gate_cycles + comm_cycles.
        teleports / local_moves: total move counts by kind.
        teleport_epochs / local_epochs: epochs billed at 4 / at 1.
        epr: per-channel EPR-pair consumption.
    """

    gate_cycles: int = 0
    comm_cycles: int = 0
    teleports: int = 0
    local_moves: int = 0
    teleport_epochs: int = 0
    local_epochs: int = 0
    epr: EPRAccounting = field(default_factory=EPRAccounting)

    @property
    def runtime(self) -> int:
        return self.gate_cycles + self.comm_cycles


def naive_runtime(op_count: int) -> int:
    """Runtime of the sequential, naive movement model: one gate per
    timestep, every timestep wrapped in a teleport epoch (5x)."""
    return NAIVE_FACTOR * op_count


#: ``(typecode, lo, hi)``, narrowest first.
_TYPECODES = (
    ("B", 0, 2**8 - 1),
    ("b", -(2**7), 2**7 - 1),
    ("H", 0, 2**16 - 1),
    ("h", -(2**15), 2**15 - 1),
    ("i", -(2**31), 2**31 - 1),
)


def narrowest_typecode(lo: int, hi: int) -> str:
    """The narrowest ``array`` typecode holding every int in
    ``lo..hi``."""
    return next(
        (code for code, a, b in _TYPECODES if a <= lo and hi <= b), "q"
    )


def movement_epochs(
    qubits: Sequence[Qubit],
    use_q: Sequence[int],
    use_r: Sequence[int],
    use_off: Sequence[int],
    k: int,
    machine: MultiSIMD,
    stats: CommStats,
) -> Iterator[List[Move]]:
    """Derive movement epoch-at-a-time: the one implementation of the
    paper's movement model.

    The schedule arrives as one operand-use stream in schedule order:
    use ``u`` names qubit ``qubits[use_q[u]]`` in region ``use_r[u]``,
    and timestep ``t``'s uses are ``use_off[t]:use_off[t + 1]``,
    region-ascending (the order of a schedule's flat arrays).
    Yields the epoch preceding each timestep, in timestep order; once
    exhausted, it has billed every epoch into ``stats`` by
    :func:`~repro.arch.machine.epoch_cycles`.

    One backward pass gives each use the region of its qubit's next use
    (−1 once the qubit is dead), in an ``array`` of the narrowest type;
    it and the stream are released with the exhausted generator.

    Each qubit's location is an int code: ``r`` for region ``r``,
    ``k + r`` for region ``r``'s scratchpad, ``-1`` for global memory.
    Residency is tracked per region, so each eviction scan visits only
    the regions active at ``t``, and dead qubits are dropped from it.
    Eviction candidates are visited in first-move order — the memory
    map's insertion order, which the reference scan in ``tests/oracle/``
    iterates — so scratchpad fills, the ``Move`` sequence and the EPR
    channel order are bit-identical to the reference's. ``Move``
    objects are frozen and interned per ``(qubit, src, dst)``.
    """
    n_q = len(qubits)
    n_ts = len(use_off) - 1
    # --- next use: one backward pass --------------------------------------
    next_r = array(narrowest_typecode(-1, k - 1))
    put = next_r.append
    last = [-1] * n_q
    for qid, r in zip(reversed(use_q), reversed(use_r)):
        put(last[qid])
        last[qid] = r
    next_r.reverse()
    del last

    # Location code -> location tuple; code -1 (global) indexes the
    # last entry, so ``code % width`` is a dense index.
    codes = [("region", r) for r in range(k)]
    codes += [("local", r) for r in range(k)]
    codes.append(("global",))
    width = len(codes)
    loc = [-1] * n_q
    resident: List[Dict[int, int]] = [{} for _ in range(k)]
    serial = [-1] * n_q  # first-move order
    by_serial: List[int] = []
    pad = [0] * k
    capacity = machine.local_memory
    has_local = machine.has_local_memory
    stamp = [-1] * n_q  # last timestep whose ops name the qubit
    nxt = [-1] * n_q  # region of the qubit's next use, -1 if dead
    # (qid, src, dst) -> (Move, EPR channel index or -1 for a local
    # move).
    interned: Dict[int, Tuple[Move, int]] = {}
    # EPR channel (src, dst) -> dense index in first-use order (the EPR
    # ledger's insertion order), and each channel's teleport count.
    channel_of: Dict[Tuple[int, int], int] = {}
    channel_pairs: List[int] = []

    def intern(key: int, qid: int, src: int, dst: int) -> Tuple[Move, int]:
        # Local iff between region r and its own scratchpad.
        local = src >= 0 and dst >= 0 and abs(src - dst) == k
        m = Move(
            qubits[qid], codes[src], codes[dst],
            "local" if local else "teleport",
        )
        channel = -1
        if not local:
            channel = channel_of.get((src, dst), -1)
            if channel < 0:
                channel = channel_of[src, dst] = len(channel_pairs)
                channel_pairs.append(0)
        entry = interned[key] = (m, channel)
        return entry

    teleport_cost = epoch_cycles(1, 0)
    local_cost = epoch_cycles(0, 1)
    teleports = local_moves = comm_cycles = 0
    teleport_epochs = local_epochs = peak = 0
    end = 0
    for t in range(n_ts):
        start = end
        end = use_off[t + 1]
        qs = use_q[start:end]
        rs = use_r[start:end]
        # Stamp ``t``'s operands first: they are fetched (or stay), so
        # the eviction scan before the fetches must skip them.
        for qid in qs:
            stamp[qid] = t
        # --- evictions: qubits left in a region active at ``t`` ---------
        candidates: List[int] = []
        for r in set(rs):  # idle regions store qubits passively
            res_r = resident[r]
            if not res_r:
                continue
            dead = None
            for qid, s in res_r.items():
                if stamp[qid] == t:
                    continue  # stays for, or is fetched for, its op
                if nxt[qid] < 0:
                    # Dead qubit: left behind and reabsorbed as ancilla
                    # or EPR feedstock (Section 4.4) — no move billed,
                    # and never reconsidered.
                    if dead is None:
                        dead = [qid]
                    else:
                        dead.append(qid)
                    continue
                candidates.append(s)
            if dead is not None:
                for qid in dead:
                    del res_r[qid]
        epoch: List[Move] = []
        n_tele = 0
        if candidates:
            # Scratchpad space is claimed in visit order, so the visit
            # order must match the reference scan's (first-move order).
            candidates.sort()
            for s in candidates:
                qid = by_serial[s]
                r = loc[qid]
                if has_local and nxt[qid] == r and capacity - pad[r] >= 1:
                    dst = k + r
                    pad[r] += 1
                else:
                    dst = -1
                key = (qid * width + r) * width + dst
                m, channel = interned.get(key) or intern(key, qid, r, dst)
                epoch.append(m)
                if channel >= 0:
                    channel_pairs[channel] += 1
                    n_tele += 1
                loc[qid] = dst
                del resident[r][qid]
        # --- fetch operands into their regions -------------------------
        for qid, r, nr in zip(qs, rs, next_r[start:end]):
            nxt[qid] = nr
            src = loc[qid]
            if src == r:
                continue
            key = (qid * width + src) * width + r
            m, channel = interned.get(key) or intern(key, qid, src, r)
            epoch.append(m)
            if channel >= 0:
                channel_pairs[channel] += 1
                n_tele += 1
            if src >= k:
                pad[src - k] -= 1
            elif src >= 0:
                del resident[src][qid]
            loc[qid] = r
            s = serial[qid]
            if s < 0:
                s = serial[qid] = len(by_serial)
                by_serial.append(qid)
            resident[r][qid] = s
        # --- bill the epoch ----------------------------------------------
        if n_tele:
            teleports += n_tele
            local_moves += len(epoch) - n_tele
            comm_cycles += teleport_cost
            teleport_epochs += 1
            if n_tele > peak:
                peak = n_tele
        elif epoch:
            local_moves += len(epoch)
            comm_cycles += local_cost
            local_epochs += 1
        yield epoch

    stats.gate_cycles += n_ts * GATE_CYCLES
    stats.comm_cycles += comm_cycles
    stats.teleports += teleports
    stats.local_moves += local_moves
    stats.teleport_epochs += teleport_epochs
    stats.local_epochs += local_epochs
    epr = stats.epr
    epr.total_pairs += teleports
    epr.peak_epoch_demand = max(epr.peak_epoch_demand, peak)
    pair_counts = epr.pair_counts
    for (src, dst), channel in channel_of.items():
        label = (loc_label(codes[src]), loc_label(codes[dst]))
        pair_counts[label] = (
            pair_counts.get(label, 0) + channel_pairs[channel]
        )


def schedule_epochs(
    cols,
    sched: Schedule,
    machine: MultiSIMD,
    stats: CommStats,
) -> Iterator[List[Move]]:
    """:func:`movement_epochs` over ``sched``'s operand-use stream.

    ``cols`` is the int-coded view ``sched``'s nodes index: a DAG's
    :meth:`~repro.core.dag.DependenceDAG.columns` or a
    :class:`~repro.sched.stream.StreamColumns`; both carry ``qubits``
    and the CSR operands ``op_q``/``op_off``. The stream is read off
    the flat arrays in one pass: a qubit id and a region per use, each
    in the narrowest ``array`` type (1 B while there are at most 256
    qubits and regions), and one ``int`` per timestep.
    """
    k = sched.k
    op_q, op_off = cols.op_q, cols.op_off
    use_q = array(narrowest_typecode(0, len(cols.qubits) - 1))
    use_r = array(narrowest_typecode(0, k - 1))
    use_off = array("i", [0])
    put_q, put_r, end_ts = use_q.append, use_r.append, use_off.append
    entries = zip(sched.flat_nodes, sched.flat_regions)
    ts_off = sched.ts_off
    for start, end in zip(ts_off, islice(ts_off, 1, None)):
        for node, r in islice(entries, end - start):
            for qid in op_q[op_off[node] : op_off[node + 1]]:
                put_q(qid)
                put_r(r)
        end_ts(len(use_q))
    return movement_epochs(
        cols.qubits, use_q, use_r, use_off, k, machine, stats
    )


@spanned("comm:derive_movement")
def derive_movement(
    sched: Schedule, machine: MultiSIMD
) -> CommStats:
    """Derive the movement epochs for ``sched`` on ``machine``.

    Attaches them as ``sched.moves``, one list per timestep (replacing
    any attached before), and returns the communication profile.
    :func:`schedule_epochs` does the work over the DAG's int-coded
    :meth:`~repro.core.dag.DependenceDAG.columns` view.
    """
    stats = CommStats()
    sched.moves = list(
        schedule_epochs(sched.dag.columns(), sched, machine, stats)
    )
    return stats
