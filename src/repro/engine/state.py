"""Stateful Multi-SIMD machine model for the execution engine.

Tracks, while a schedule executes:

* **the clock** — engine cycles, advanced by epochs, stalls and gates;
* **per-channel EPR pair pools** — pairs are generated at the global
  memory at a steady rate and consumed one per teleport
  (:class:`EPRPool` reproduces the eager-generation accounting of
  :func:`repro.arch.epr_schedule.plan_epr_distribution` exactly, so
  the engine's stalls agree with the static plan);
* **per-region activity** — busy cycles and executed op counts for
  utilization reporting.

Qubit residency is not tracked here: moves are billed by kind
(teleport or local), never by where a qubit sits. Checking residency
is the preflight's job (:func:`repro.sched.replay.replay_schedule`);
the engine is an executor, not a validator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..arch.machine import MultiSIMD, loc_label
from ..sched.types import Move

__all__ = ["EPRPool", "InterconnectState", "MachineState"]


@dataclass
class EPRPool:
    """Eagerly generated EPR pairs, consumed by teleport epochs.

    The generator starts at cycle 0 and never idles: cumulative
    production at engine clock ``c`` is ``prestage + rate * c`` (the
    prestage covers demand pinned to cycle 0, which no finite rate
    could otherwise serve — matching
    :func:`~repro.arch.epr_schedule.plan_epr_distribution`). Failed
    generation attempts (fault injection) occupy production slots, so
    they delay later consumers at finite rates.

    Attributes:
        rate: steady generation rate in pairs/cycle (``inf`` =
            just-in-time generation, never stalls).
        prestage: pairs staged before cycle 0.
        consumed: good pairs consumed so far.
        wasted: failed generation attempts charged to the generator.
        channel_pairs: per ``(src, dst)`` label consumption counts.
    """

    rate: float = math.inf
    prestage: int = 0
    consumed: int = 0
    wasted: int = 0
    channel_pairs: Dict[Tuple[str, str], int] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def stall_for(self, demand: int, clock: int) -> int:
        """Cycles to wait at ``clock`` before ``demand`` more units
        (pairs + wasted attempts) are available; 0 at infinite rate."""
        if math.isinf(self.rate) or demand <= 0:
            return 0
        need = self.consumed + self.wasted + demand
        produced = self.prestage + self.rate * clock
        if produced >= need:
            return 0
        return math.ceil((need - produced) / self.rate)

    def consume(
        self,
        moves: Iterable[Move],
        wasted_attempts: int = 0,
    ) -> None:
        """Account one epoch's teleports (plus failed attempts)."""
        for m in moves:
            key = (loc_label(m.src), loc_label(m.dst))
            self.channel_pairs[key] = self.channel_pairs.get(key, 0) + 1
            self.consumed += 1
        self.wasted += wasted_attempts

    def consume_pairs(
        self, count: int, channel: Tuple[str, str]
    ) -> None:
        """Account ``count`` pairs on one labelled channel (the
        inter-core interconnect path, where consumption arrives as a
        per-link load rather than a ``Move`` list)."""
        if count < 0:
            raise ValueError(f"cannot consume {count} pairs")
        if count:
            self.channel_pairs[channel] = (
                self.channel_pairs.get(channel, 0) + count
            )
            self.consumed += count

    @property
    def total_pairs(self) -> int:
        return self.consumed


class InterconnectState:
    """Per-link EPR pools of a multi-core interconnect.

    Each link of the core graph owns one :class:`EPRPool` generating
    pairs at ``epr_rate``; an inter-core epoch that needs more pairs
    than a link has produced stalls until generation catches up —
    the same rate arithmetic the intra-core pool uses, one pool per
    link.

    Attributes:
        pools: ``(a, b)`` normalized link -> its pool.
    """

    def __init__(
        self,
        links: Iterable[Tuple[int, int]],
        epr_rate: float = math.inf,
        prestage: int = 0,
    ) -> None:
        self.pools: Dict[Tuple[int, int], EPRPool] = {
            (min(a, b), max(a, b)): EPRPool(
                rate=epr_rate, prestage=prestage
            )
            for a, b in links
        }

    def _pool(self, link: Tuple[int, int]) -> EPRPool:
        key = (min(link), max(link))
        pool = self.pools.get(key)
        if pool is None:
            raise KeyError(f"no interconnect link {key}")
        return pool

    def stall_for(
        self, loads: Dict[Tuple[int, int], int], clock: int
    ) -> int:
        """Cycles to wait at ``clock`` before every link can serve its
        load (the epoch waits for its slowest link)."""
        return max(
            (
                self._pool(link).stall_for(load, clock)
                for link, load in loads.items()
            ),
            default=0,
        )

    def consume(self, loads: Dict[Tuple[int, int], int]) -> None:
        for link, load in loads.items():
            a, b = min(link), max(link)
            self._pool(link).consume_pairs(
                load, (f"core{a}", f"core{b}")
            )

    @property
    def total_pairs(self) -> int:
        return sum(pool.consumed for pool in self.pools.values())

    def link_pairs_labels(self) -> Dict[str, int]:
        """JSON-safe ``"coreA<->coreB"`` pair-consumption map."""
        return {
            f"core{a}<->core{b}": pool.consumed
            for (a, b), pool in sorted(self.pools.items())
            if pool.consumed
        }


class MachineState:
    """Mutable execution state of one Multi-SIMD(k,d) machine.

    Attributes:
        machine: the configuration being simulated.
        k: region count of the executing schedule.
        clock: current engine cycle.
        busy_cycles / ops_executed: per-region activity tallies.
        epr: the EPR pool teleports draw from.
    """

    def __init__(
        self,
        k: int,
        machine: MultiSIMD,
        epr_rate: float = math.inf,
        prestage: int = 0,
    ) -> None:
        self.machine = machine
        self.k = k
        self.clock = 0
        self.busy_cycles: List[int] = [0] * k
        self.ops_executed: List[int] = [0] * k
        self.epr = EPRPool(rate=epr_rate, prestage=prestage)

    # -- time ----------------------------------------------------------

    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self.clock += cycles

    # -- execution -----------------------------------------------------

    def execute_region(self, region: int, ops: int, cycles: int) -> None:
        """Record one region-timestep batch of ``ops`` operations."""
        if 0 <= region < self.k:
            self.busy_cycles[region] += cycles
            self.ops_executed[region] += ops

    # -- reporting -----------------------------------------------------

    def utilization(self, runtime: Optional[int] = None) -> Dict[int, float]:
        """Busy fraction per region over ``runtime`` (or the clock)."""
        total = self.clock if runtime is None else runtime
        if total <= 0:
            return {r: 0.0 for r in range(self.k)}
        return {
            r: self.busy_cycles[r] / total for r in range(self.k)
        }

    def channel_pairs_labels(self) -> Dict[str, int]:
        """JSON-safe ``"src->dst"`` pair-consumption map."""
        return {
            f"{src}->{dst}": count
            for (src, dst), count in sorted(
                self.epr.channel_pairs.items()
            )
        }
