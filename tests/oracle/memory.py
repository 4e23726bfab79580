"""Memory hierarchy: global quantum memory and per-region scratchpads.

The global memory is unbounded and teleport-connected; each SIMD region
may also have a small *local* scratchpad reached by 1-cycle ballistic
moves (Section 2.5). The oracle's movement derivation
(:func:`tests.oracle.reference_sched.derive_movement_reference`)
consults :class:`Scratchpad` occupancy to decide whether an evicted
qubit can be parked locally or must pay a global teleport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.qubits import Qubit

__all__ = ["Scratchpad", "MemoryMap"]


class Scratchpad:
    """A capacity-limited local memory beside one SIMD region."""

    def __init__(self, capacity: float):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._held: Set[Qubit] = set()
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        return len(self._held)

    @property
    def free_slots(self) -> float:
        return self.capacity - self.occupancy

    def holds(self, qubit: Qubit) -> bool:
        return qubit in self._held

    def try_store(self, qubit: Qubit) -> bool:
        """Store ``qubit`` if space remains; returns success."""
        if qubit in self._held:
            return True
        if self.occupancy + 1 > self.capacity:
            return False
        self._held.add(qubit)
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        return True

    def retrieve(self, qubit: Qubit) -> None:
        """Remove ``qubit``; raises KeyError if it is not held."""
        self._held.remove(qubit)


@dataclass
class MemoryMap:
    """Tracks where every qubit currently lives during schedule
    simulation.

    Locations are encoded as:

    * ``("global",)`` — the global quantum memory;
    * ``("region", r)`` — inside SIMD region ``r`` (0-based);
    * ``("local", r)`` — region ``r``'s scratchpad.
    """

    k: int
    local_capacity: Optional[float] = None
    locations: Dict[Qubit, tuple] = field(default_factory=dict)
    scratchpads: Dict[int, Scratchpad] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.local_capacity is not None:
            self.scratchpads = {
                r: Scratchpad(self.local_capacity) for r in range(self.k)
            }

    def location(self, qubit: Qubit) -> tuple:
        """Current location (new qubits start in global memory, where
        ancillas are generated — Section 3.2)."""
        return self.locations.get(qubit, ("global",))

    def move(self, qubit: Qubit, dest: tuple) -> None:
        """Relocate ``qubit``, updating scratchpad occupancy."""
        src = self.location(qubit)
        if src[0] == "local":
            self.scratchpads[src[1]].retrieve(qubit)
        if dest[0] == "local":
            pad = self.scratchpads.get(dest[1])
            if pad is None or not pad.try_store(qubit):
                raise ValueError(
                    f"scratchpad {dest[1]} cannot hold {qubit!r}"
                )
        self.locations[qubit] = dest

    def local_has_space(self, region: int) -> bool:
        pad = self.scratchpads.get(region)
        return pad is not None and pad.free_slots >= 1
