"""Schedule replay: execute a movement-annotated schedule against the
machine model and check every physical invariant.

``derive_movement`` *plans* qubit motion; this module independently
*replays* the plan, timestep by timestep, and verifies that the
execution would actually be physically realisable on a
Multi-SIMD(k,d) machine:

* every operand of every operation is resident in the operation's
  region when it executes;
* moves are consistent (a move's source matches where the qubit
  actually is; kinds match the endpoints — ballistic moves only
  between a region and its own scratchpad);
* scratchpad capacities are never exceeded;
* no qubit sits idle in a region that is actively operating on other
  qubits (the passive-storage rule of Section 3.2);
* the billed runtime equals the replayed cost.

Used by tests as an oracle against the movement planner, and usable by
library consumers to validate hand-built or externally modified
schedules. Two failure modes are offered:

* the default raises :class:`ReplayError` on the **first** violation
  (the historical behaviour);
* passing ``on_violation`` collects **every** violation — the replay
  repairs its tracked state after each one and keeps going, which is
  what the static auditor (:func:`repro.analysis.audit_replay`) uses
  to report a complete picture of a broken plan.

Violation codes (shared with :mod:`repro.analysis`): ``QL301`` operand
not resident, ``QL302`` move source mismatch, ``QL303`` invalid
ballistic endpoints, ``QL304`` scratchpad capacity/absence, ``QL305``
passive-storage violation, ``QL306`` schedule/machine shape mismatch.

Algorithm. One pre-pass over the timesteps records each qubit's last
operand timestep; a qubit is live after ``t`` iff its last use is
later. The replay then keeps, next to the qubit location map, the set
of qubits resident in each region, updated on every relocation (each
applied move, taken at its word even when its destination is bad, and
each QL301 repair). The passive-storage check at ``t`` visits only the
residents of the regions active at ``t``, and drops every resident it
finds dead for good: a dead qubit can never be live again, so it stays
in the location map (and in ``final_locations``) but leaves the scan.
Each visit therefore either meets an operand of ``t``, reports a
violation or drops a qubit, and the replay runs in O(ops + moves +
timesteps·k) time, plus the violations it reports, with O(qubits)
memory beyond the schedule. QL305 violations are reported in the order
the qubits were first placed, the order a scan of the whole location
map would meet them in.

Replay keeps no state between calls: nothing of a schedule outlives
the call that replayed it, and a schedule edited in place replays
afresh.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    epoch_cycles,
    split_epoch,
)
from ..core.qubits import Qubit
from .types import Move, Schedule

__all__ = [
    "ReplayError",
    "ReplayReport",
    "replay_schedule",
]


class ReplayError(Exception):
    """A schedule's movement plan is physically unrealisable.

    A plain :class:`Exception`, so replay validation survives
    ``python -O``.
    """

#: Signature of a violation collector: ``(code, message, timestep)``.
ViolationHandler = Callable[[str, str, int], None]


@dataclass
class ReplayReport:
    """Outcome of a successful replay.

    Attributes:
        runtime: replayed total cycles (gate + movement epochs).
        teleport_epochs / local_epochs: epoch counts by billed kind.
        peak_scratchpad: max scratchpad occupancy observed per region.
        final_locations: where every qubit ended up.
        violations: number of violations tolerated (always 0 unless an
            ``on_violation`` collector was supplied).
    """

    runtime: int
    teleport_epochs: int
    local_epochs: int
    peak_scratchpad: Dict[int, int] = field(default_factory=dict)
    final_locations: Dict[Qubit, tuple] = field(default_factory=dict)
    violations: int = 0


def replay_schedule(
    sched: Schedule,
    machine: MultiSIMD,
    on_violation: Optional[ViolationHandler] = None,
) -> ReplayReport:
    """Replay ``sched`` (with moves attached) on ``machine``.

    Args:
        sched: the movement-annotated schedule.
        machine: the target machine model.
        on_violation: when given, called as ``(code, message,
            timestep)`` for *every* physical-invariant violation and
            the replay continues best-effort (repairing its tracked
            state) instead of aborting.

    Raises:
        ReplayError: on the first violation, when ``on_violation`` is
            not supplied.
        TypeError: ``sched`` is columnar (``dag`` is ``None``).
    """
    sched.require_dag()
    count = 0

    def emit(code: str, message: str, t: int = -1) -> None:
        nonlocal count
        if on_violation is None:
            raise ReplayError(message)
        count += 1
        on_violation(code, message, t)

    if machine.k < sched.k:
        emit(
            "QL306",
            f"schedule uses {sched.k} regions, machine has "
            f"{machine.k}",
        )
    operation = sched.operation
    # Each qubit's last operand timestep: a qubit is live after t iff
    # its last use is later than t.
    last_use: Dict[Qubit, int] = {}
    flat_nodes, ts_off = sched.flat_nodes, sched.ts_off
    for t in range(sched.length):
        for n in flat_nodes[ts_off[t] : ts_off[t + 1]]:
            for q in operation(n).qubits:
                last_use[q] = t
    location: Dict[Qubit, tuple] = {}
    # Insertion rank of each key of ``location``: QL305 violations are
    # reported in this order.
    rank: Dict[Qubit, int] = {}
    # The qubits in each region, less those found dead by a scan.
    residents: Dict[int, Set[Qubit]] = defaultdict(set)
    pad_occupancy: Dict[int, Set[Qubit]] = {
        r: set() for r in range(sched.k)
    }
    peak: Dict[int, int] = {r: 0 for r in range(sched.k)}
    runtime = 0
    teleport_epochs = 0
    local_epochs = 0

    for t, (moves, regions) in enumerate(sched.iter_timesteps()):
        # --- movement epoch preceding the timestep ----------------------
        for move in moves:
            q = move.qubit
            where = location.get(q)
            if where is None:
                rank[q] = len(rank)
            elif where[0] == "region":
                residents[where[1]].discard(q)
            _apply_move(move, t, location, pad_occupancy, machine, emit)
            if move.dst[0] == "region":
                residents[move.dst[1]].add(q)
        for r, pad in pad_occupancy.items():
            if len(pad) > peak[r]:
                peak[r] = len(pad)
        teleports, locals_ = split_epoch(moves)
        runtime += epoch_cycles(len(teleports), len(locals_))
        if teleports:
            teleport_epochs += 1
        elif locals_:
            local_epochs += 1
        # --- execute the timestep ----------------------------------------
        active: List[int] = []
        used_here: Set[Qubit] = set()
        for r, nodes in regions:
            active.append(r)
            here = ("region", r)
            for n in nodes:
                for q in operation(n).qubits:
                    where = location.get(q, ("global",))
                    if where != here:
                        emit(
                            "QL301",
                            f"t={t}: operand {q!r} of node {n} is at "
                            f"{where}, not in region {r}",
                            t,
                        )
                        # Repair: pretend the qubit arrived so later
                        # timesteps report their own violations rather
                        # than echoes of this one.
                        if where[0] == "local":
                            pad_occupancy[where[1]].discard(q)
                        elif where[0] == "region":
                            residents[where[1]].discard(q)
                        elif q not in rank:
                            rank[q] = len(rank)
                        location[q] = here
                        residents[r].add(q)
                    used_here.add(q)
        # Passive-storage rule: a qubit resident in an *active* region
        # but not used this timestep would be hit by the region's SIMD
        # gate. Qubits with no further use are exempt (reabsorbed as
        # ancilla feedstock, Section 4.4), and since they can never be
        # live again they leave the scan for good.
        idle: List[Tuple[int, Qubit, int]] = []
        for r in active:
            dead: List[Qubit] = []
            for q in residents[r]:
                if last_use.get(q, -1) <= t:
                    dead.append(q)
                elif q not in used_here:
                    idle.append((rank[q], q, r))
            residents[r].difference_update(dead)
        idle.sort()  # ranks are unique: qubits are never compared
        for _, q, r in idle:
            emit(
                "QL305",
                f"t={t}: live qubit {q!r} idles in active region {r}",
                t,
            )
        runtime += GATE_CYCLES
    return ReplayReport(
        runtime=runtime,
        teleport_epochs=teleport_epochs,
        local_epochs=local_epochs,
        peak_scratchpad=peak,
        final_locations=dict(location),
        violations=count,
    )


def _apply_move(
    move: Move,
    t: int,
    location: Dict[Qubit, tuple],
    pads: Dict[int, Set[Qubit]],
    machine: MultiSIMD,
    emit: Callable[[str, str, int], None],
) -> None:
    actual = location.get(move.qubit, ("global",))
    if actual != move.src:
        emit(
            "QL302",
            f"t={t}: move of {move.qubit!r} claims src {move.src}, "
            f"but it is at {actual}",
            t,
        )
        # Repair: take the qubit from wherever it actually is.
        if actual[0] == "local" and actual[1] in pads:
            pads[actual[1]].discard(move.qubit)
    if move.kind == "local":
        ok = (
            move.src[0] == "region"
            and move.dst == ("local", move.src[1])
        ) or (
            move.src[0] == "local"
            and move.dst == ("region", move.src[1])
        )
        if not ok:
            emit(
                "QL303",
                f"t={t}: ballistic move {move.src} -> {move.dst} is "
                "not between a region and its own scratchpad",
                t,
            )
    if move.src[0] == "local" and move.src[1] in pads:
        pads[move.src[1]].discard(move.qubit)
    if move.dst[0] == "local":
        if machine.local_memory is None:
            emit(
                "QL304",
                f"t={t}: move into scratchpad on a machine without "
                "local memory",
                t,
            )
        pad = pads.setdefault(move.dst[1], set())
        pad.add(move.qubit)
        if (
            machine.local_memory is not None
            and len(pad) > machine.local_memory
        ):
            emit(
                "QL304",
                f"t={t}: scratchpad {move.dst[1]} over capacity "
                f"({len(pad)} > {machine.local_memory})",
                t,
            )
    location[move.qubit] = move.dst
