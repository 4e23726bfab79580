"""Distributed global memory (the paper's stated future work).

Section 2.3: "To minimize EPR bandwidth requirements, future work will
investigate distributed global memory and compiler algorithms for
mapping to such a non-uniform memory architecture." This module
implements that extension:

* the global memory is split into ``banks`` banks laid out on a line
  beside the SIMD regions; each (bank, region) channel sustains
  ``channel_bandwidth`` EPR pairs per movement epoch, derated with
  distance (a pair crossing ``h`` hops occupies ``1 + h`` units of
  channel capacity — constant latency, linear bandwidth, per the
  paper's model of teleportation);
* qubits are mapped to banks by *affinity*: each qubit lives in the
  bank nearest the region that touches it most (the compiler mapping
  algorithm the paper anticipates), or round-robin as a baseline;
* movement epochs are re-billed: an epoch whose busiest channel (or
  busiest bank egress — one bank is one pair-generation site) demands
  more capacity than the bandwidth is serialised into multiple
  teleport rounds.

With ``banks=1`` and infinite bandwidth this degenerates exactly to
the paper's centralized-memory accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.qubits import Qubit
from ..sched.types import Schedule
from .machine import GATE_CYCLES, epoch_cycles, split_epoch

__all__ = [
    "NUMAConfig",
    "NUMAStats",
    "assign_banks",
    "epoch_teleport_loads",
    "serialize_rounds",
    "numa_runtime",
]


@dataclass(frozen=True)
class NUMAConfig:
    """A distributed-global-memory configuration.

    Attributes:
        banks: number of memory banks (>= 1).
        channel_bandwidth: pair-capacity units per (bank, region)
            channel per teleport round (``inf`` = unconstrained).
        bank_egress: total pair-capacity units one bank can source per
            teleport round, across all its channels (``inf`` =
            unconstrained). This is the constraint distribution
            actually relieves: a single centralized memory is a single
            generation site.
        placement: ``"affinity"`` (most-used region's nearest bank) or
            ``"round_robin"``.
    """

    banks: int = 1
    channel_bandwidth: float = math.inf
    bank_egress: float = math.inf
    placement: str = "affinity"

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.banks}")
        if self.channel_bandwidth <= 0:
            raise ValueError("channel bandwidth must be positive")
        if self.bank_egress <= 0:
            raise ValueError("bank egress must be positive")
        if self.placement not in ("affinity", "round_robin"):
            raise ValueError(
                f"unknown placement policy {self.placement!r}"
            )

    def nearest_bank(self, region: int, k: int) -> int:
        """The bank physically adjacent to ``region`` on the line."""
        if k <= 0:
            return 0
        return min(self.banks - 1, region * self.banks // max(k, 1))

    def distance(self, bank: int, region: int, k: int) -> int:
        """Hop distance between a bank and a region on the line."""
        home = self.nearest_bank(region, k)
        return abs(bank - home)


@dataclass
class NUMAStats:
    """Runtime accounting under distributed global memory.

    Attributes:
        runtime: total cycles with bandwidth-serialised epochs.
        teleport_rounds: total teleport rounds billed (>= epochs).
        peak_channel_load: largest single-epoch channel demand, in
            capacity units.
        bank_loads: total capacity units consumed per bank.
        bank_of: the qubit -> bank placement used.
    """

    runtime: int
    teleport_rounds: int
    peak_channel_load: float
    bank_loads: Dict[int, float] = field(default_factory=dict)
    bank_of: Dict[Qubit, int] = field(default_factory=dict)


def assign_banks(
    sched: Schedule, config: NUMAConfig
) -> Dict[Qubit, int]:
    """Map every qubit the schedule touches to a memory bank."""
    usage: Dict[Qubit, Dict[int, int]] = {}
    order: List[Qubit] = []
    for r, n in zip(sched.flat_regions, sched.flat_nodes):
        for q in sched.operation(n).qubits:
            if q not in usage:
                usage[q] = {}
                order.append(q)
            usage[q][r] = usage[q].get(r, 0) + 1
    bank_of: Dict[Qubit, int] = {}
    for i, q in enumerate(order):
        if config.placement == "round_robin":
            bank_of[q] = i % config.banks
        else:
            home_region = max(
                usage[q].items(), key=lambda kv: (kv[1], -kv[0])
            )[0]
            bank_of[q] = config.nearest_bank(home_region, sched.k)
    return bank_of


def epoch_teleport_loads(
    teleports,
    bank_of: Dict[Qubit, int],
    config: NUMAConfig,
    k: int,
) -> Tuple[Dict[Tuple[int, int], float], Dict[int, float]]:
    """Per-channel and per-bank capacity loads of one epoch's teleports.

    A pair crossing ``h`` hops occupies ``1 + h`` units of channel (and
    bank-egress) capacity. Moves between two regions are routed through
    the destination region's nearest bank (pairs are generated at
    memory, Section 2.3). Shared by :func:`numa_runtime` and the
    execution engine so both bill from one implementation.

    Returns:
        ``(channel_load, bank_load)`` keyed by ``(bank, region)`` and
        ``bank`` respectively.
    """
    channel_load: Dict[Tuple[int, int], float] = {}
    bank_load: Dict[int, float] = {}
    for m in teleports:
        region = _endpoint_region(m)
        bank = bank_of.get(m.qubit, 0)
        cost = 1.0 + config.distance(bank, region, k)
        key = (bank, region)
        channel_load[key] = channel_load.get(key, 0.0) + cost
        bank_load[bank] = bank_load.get(bank, 0.0) + cost
    return channel_load, bank_load


def serialize_rounds(
    channel_load: Dict[Tuple[int, int], float],
    bank_load: Dict[int, float],
    config: NUMAConfig,
) -> int:
    """Teleport rounds one epoch serializes into, given its loads.

    The busiest channel and the busiest bank egress each bound the
    epoch; the round count is the larger of the two ceilings (1 when
    both limits are unconstrained or the epoch is empty).
    """
    rounds = 1
    if channel_load and not math.isinf(config.channel_bandwidth):
        rounds = max(
            rounds,
            math.ceil(
                max(channel_load.values()) / config.channel_bandwidth
            ),
        )
    if bank_load and not math.isinf(config.bank_egress):
        rounds = max(
            rounds,
            math.ceil(max(bank_load.values()) / config.bank_egress),
        )
    return rounds


def numa_runtime(
    sched: Schedule,
    config: NUMAConfig,
    bank_of: Optional[Dict[Qubit, int]] = None,
) -> NUMAStats:
    """Re-bill a movement-annotated schedule's epochs under distributed
    memory with bandwidth-limited channels.

    Moves between two regions are routed through the destination
    region's nearest bank (pairs are generated at memory, Section 2.3).
    """
    if bank_of is None:
        bank_of = assign_banks(sched, config)
    runtime = 0
    rounds = 0
    peak = 0.0
    bank_loads: Dict[int, float] = {b: 0.0 for b in range(config.banks)}

    for moves, _ in sched.iter_timesteps():
        teleports, locals_ = split_epoch(moves)
        epoch_rounds = 1
        if teleports:
            channel_load, epoch_bank_load = epoch_teleport_loads(
                teleports, bank_of, config, sched.k
            )
            for bank, load in epoch_bank_load.items():
                bank_loads[bank] += load
            peak = max(peak, max(channel_load.values()))
            epoch_rounds = serialize_rounds(
                channel_load, epoch_bank_load, config
            )
            rounds += epoch_rounds
        runtime += epoch_cycles(
            len(teleports), len(locals_), epoch_rounds
        )
        runtime += GATE_CYCLES
    return NUMAStats(
        runtime=runtime,
        teleport_rounds=rounds,
        peak_channel_load=peak,
        bank_loads=bank_loads,
        bank_of=bank_of,
    )


def _endpoint_region(move) -> int:
    """The region side of a teleport (bank side is the qubit's home)."""
    if move.dst[0] == "region":
        return move.dst[1]
    if move.src[0] == "region":
        return move.src[1]
    if move.dst[0] == "local":
        return move.dst[1]
    if move.src[0] == "local":
        return move.src[1]
    return 0
