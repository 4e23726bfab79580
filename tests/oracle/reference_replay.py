"""Reference (pre-optimization) schedule replay: the oracle.

This is the straightforward replay that :func:`repro.sched.replay.
replay_schedule` replaced. At every timestep it rescans every qubit
ever placed for the passive-storage rule (QL305), and it tests
liveness against one copied set of "qubits used after ``t``" per
timestep, built by a suffix pass over the whole schedule.

It is kept as the executable specification the pipeline's replay is
checked against: ``tests/test_replay.py`` corrupts random planned
schedules and asserts identical violation streams, first-error
messages and :class:`~repro.sched.replay.ReplayReport` fields.

The one change from the historical code: the suffix sets are computed
per call. The old version memoised them in a module-global cache keyed
by ``id(sched)``, which served stale sets for a schedule edited in
place between two replays.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    epoch_cycles,
    split_epoch,
)
from repro.core.qubits import Qubit
from repro.sched.replay import ReplayError, ReplayReport, ViolationHandler
from repro.sched.types import Move, Schedule

__all__ = ["replay_schedule_reference"]


def replay_schedule_reference(
    sched: Schedule,
    machine: MultiSIMD,
    on_violation: Optional[ViolationHandler] = None,
) -> ReplayReport:
    """Replay ``sched`` on ``machine``; same contract as
    :func:`repro.sched.replay.replay_schedule`."""
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
    location: Dict[Qubit, tuple] = {}
    pad_occupancy: Dict[int, Set[Qubit]] = {
        r: set() for r in range(sched.k)
    }
    peak: Dict[int, int] = {r: 0 for r in range(sched.k)}
    runtime = 0
    teleport_epochs = 0
    local_epochs = 0
    suffix: Optional[List[Set[Qubit]]] = None

    for t, (moves, regions) in enumerate(sched.iter_timesteps()):
        # --- movement epoch preceding the timestep ----------------------
        for move in moves:
            _apply_move(move, t, location, pad_occupancy, machine, emit)
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
        active: Set[int] = set()
        used_here: Dict[Qubit, int] = {}
        for r, nodes in regions:
            active.add(r)
            for n in nodes:
                op = sched.operation(n)
                for q in op.qubits:
                    where = location.get(q, ("global",))
                    if where != ("region", r):
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
                        location[q] = ("region", r)
                    used_here[q] = r
        # Passive-storage rule: a qubit resident in an *active* region
        # but not used this timestep would be hit by the region's SIMD
        # gate. Qubits with no further use are exempt (reabsorbed as
        # ancilla feedstock, Section 4.4).
        if suffix is None:
            suffix = _future_uses(sched)
        remaining = suffix[t + 1]
        for q, where in location.items():
            if (
                where[0] == "region"
                and where[1] in active
                and q not in used_here
                and q in remaining
            ):
                emit(
                    "QL305",
                    f"t={t}: live qubit {q!r} idles in active region "
                    f"{where[1]}",
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


def _future_uses(sched: Schedule) -> List[Set[Qubit]]:
    """``suffix[t]``: the qubits used at any timestep >= t, for
    ``t`` in ``0..length`` (``suffix[length]`` is empty)."""
    steps = [regions for _, regions in sched.iter_timesteps()]
    suffix: List[Set[Qubit]] = [set() for _ in range(sched.length + 1)]
    for i in range(sched.length - 1, -1, -1):
        bucket = set(suffix[i + 1])
        for _, nodes in steps[i]:
            for n in nodes:
                bucket.update(sched.operation(n).qubits)
        suffix[i] = bucket
    return suffix
