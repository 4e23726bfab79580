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

One kernel, :func:`movement_epochs`, implements the model over interned
qubit ids and CSR operands; :func:`derive_movement` (materialized
schedules) and :func:`repro.sched.stream.iter_schedule_epochs`
(columnar schedules) are its two adapters.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    NAIVE_FACTOR,
    epoch_cycles,
    loc_label,
)
from ..arch.teleport import EPRAccounting
from ..core.qubits import Qubit
from ..fastpath import fast_path_enabled
from ..instrument import spanned
from .types import Move, Schedule

__all__ = ["CommStats", "derive_movement", "movement_epochs", "naive_runtime"]

#: One timestep's ``(region, nodes)`` pairs, region-ascending (regions
#: with no nodes may be listed or omitted).
Regions = Sequence[Tuple[int, Sequence[int]]]


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


def movement_epochs(
    qubits: Sequence[Qubit],
    op_q: Sequence[int],
    op_off: Sequence[int],
    n_ts: int,
    regions_at: Callable[[int], Regions],
    k: int,
    machine: MultiSIMD,
    stats: CommStats,
) -> Iterator[Tuple[int, List[Move], Regions]]:
    """Derive movement epoch-at-a-time: the one implementation of the
    paper's movement model.

    Node ``n``'s operands are ``qubits[op_q[i]]`` for ``i`` in
    ``op_off[n]:op_off[n + 1]``; ``regions_at(t)`` lists timestep
    ``t``'s ``(region, nodes)`` pairs. Yields ``(t, moves, regions)``
    per timestep, where ``moves`` is the epoch preceding ``t``; once
    exhausted, it has billed every epoch into ``stats`` by
    :func:`~repro.arch.machine.epoch_cycles`.

    Each qubit's location is an int code: ``r`` for region ``r``,
    ``k + r`` for region ``r``'s scratchpad, ``-1`` for global memory.
    Residency is tracked per region, so each eviction scan visits only
    the regions active at ``t``, and dead qubits (use list exhausted)
    are dropped from it. Eviction candidates are visited in first-move
    order — the memory map's insertion order, which the reference scan
    iterates — so scratchpad fills, the ``Move`` sequence and the EPR
    channel order are bit-identical to
    :func:`repro.sched._reference.derive_movement_reference`. ``Move``
    objects are frozen and interned per ``(qubit, src, dst)``.
    """
    n_q = len(qubits)
    # Per-qubit ordered use list: the region of each use.
    uses = [array("H") for _ in range(n_q)]
    for t in range(n_ts):
        for r, nodes in regions_at(t):
            for node in nodes:
                for qid in op_q[op_off[node] : op_off[node + 1]]:
                    uses[qid].append(r)
    n_uses = [len(u) for u in uses]
    cursor = [0] * n_q  # uses consumed so far

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
    # (qid, src, dst) -> (Move, EPR channel id or -1 for a local move).
    interned: Dict[int, Tuple[Move, int]] = {}
    # Per-channel teleport counts, and channels in first-use order (the
    # EPR ledger's insertion order).
    channel_pairs = [0] * (width * width)
    channels: List[int] = []

    def intern(key: int, qid: int, src: int, dst: int) -> Tuple[Move, int]:
        # Local iff between region r and its own scratchpad.
        local = src >= 0 and dst >= 0 and abs(src - dst) == k
        m = Move(
            qubits[qid], codes[src], codes[dst],
            "local" if local else "teleport",
        )
        channel = -1 if local else (src % width) * width + dst % width
        if channel >= 0 and channel not in channels:
            channels.append(channel)
        entry = interned[key] = (m, channel)
        return entry

    teleport_cost = epoch_cycles(1, 0)
    local_cost = epoch_cycles(0, 1)
    teleports = local_moves = comm_cycles = 0
    teleport_epochs = local_epochs = peak = 0
    for t in range(n_ts):
        regions = regions_at(t)
        # Stamp ``t``'s operands first: they are fetched (or stay), so
        # the eviction scan before the fetches must skip them.
        for _, nodes in regions:
            for node in nodes:
                for qid in op_q[op_off[node] : op_off[node + 1]]:
                    stamp[qid] = t
        # --- evictions: qubits left in a region active at ``t`` ---------
        candidates: List[int] = []
        for r, nodes in regions:
            if not nodes:
                continue  # idle regions store qubits passively
            res_r = resident[r]
            dead: List[int] = []
            for qid, s in res_r.items():
                if stamp[qid] == t:
                    continue  # stays for, or is fetched for, its op
                if cursor[qid] >= n_uses[qid]:
                    # Dead qubit: left behind and reabsorbed as ancilla
                    # or EPR feedstock (Section 4.4) — no move billed,
                    # and never reconsidered.
                    dead.append(qid)
                    continue
                candidates.append(s)
            for qid in dead:
                del res_r[qid]
        # Scratchpad space is claimed in visit order, so the visit order
        # must match the reference scan's (first-move order).
        candidates.sort()
        epoch: List[Move] = []
        n_tele = 0
        for s in candidates:
            qid = by_serial[s]
            r = loc[qid]
            if (
                has_local
                and uses[qid][cursor[qid]] == r
                and capacity - pad[r] >= 1
            ):
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
        for r, nodes in regions:
            res_r = resident[r]
            for node in nodes:
                for qid in op_q[op_off[node] : op_off[node + 1]]:
                    cursor[qid] += 1
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
                    res_r[qid] = s
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
        yield t, epoch, regions

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
    for channel in channels:
        label = (
            loc_label(codes[channel // width]),
            loc_label(codes[channel % width]),
        )
        pair_counts[label] = pair_counts.get(label, 0) + channel_pairs[channel]


@spanned("comm:derive_movement")
def derive_movement(
    sched: Schedule, machine: MultiSIMD
) -> CommStats:
    """Derive the movement epochs for ``sched`` on ``machine``.

    Populates each timestep's ``moves`` list in place (idempotent: any
    existing moves are replaced) and returns the communication profile.
    :func:`movement_epochs` does the work over the DAG's int-coded
    :meth:`~repro.core.dag.DependenceDAG.columns` view.
    """
    if not fast_path_enabled():
        from ._reference import derive_movement_reference

        return derive_movement_reference(sched, machine)

    cols = sched.dag.columns()
    timesteps = sched.timesteps
    stats = CommStats()
    for t, epoch, _ in movement_epochs(
        cols.qubits,
        cols.op_q,
        cols.op_off,
        len(timesteps),
        lambda t: list(enumerate(timesteps[t].regions)),
        sched.k,
        machine,
        stats,
    ):
        timesteps[t].moves = epoch
    return stats
