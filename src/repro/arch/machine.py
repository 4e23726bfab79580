"""The Multi-SIMD(k,d) architectural model (Section 2).

A machine has ``k`` SIMD operating regions, each able to apply *one* gate
type to up to ``d`` qubits per logical timestep, a teleportation-
connected global quantum memory, and optionally a small ballistic
scratchpad ("local memory") beside each region.

Cost model (Sections 2.3, 2.5, 3.2):

* every logical gate costs 1 timestep (the clock is set by the longest
  gate);
* a movement epoch that includes at least one teleportation costs 4
  timesteps (the four qubit-manipulation steps of Figure 2);
* an epoch with only ballistic local-memory moves costs 1 timestep;
* the *naive movement model* charges a teleport epoch around every
  timestep, quintupling runtime — the sequential/naive baseline of
  Figures 7 and 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "MultiSIMD",
    "GATE_CYCLES",
    "TELEPORT_CYCLES",
    "LOCAL_MOVE_CYCLES",
    "NAIVE_FACTOR",
    "parse_capacity",
    "split_epoch",
    "loc_label",
    "epoch_cycles",
    "split_machine",
    "check_shape",
]

#: Cycles per logical gate (all gates normalised to the slowest — Sec 3.2).
GATE_CYCLES = 1
#: Cycles per teleportation movement epoch (the 4 steps of Figure 2).
TELEPORT_CYCLES = 4
#: Cycles per ballistic local-memory movement epoch (Section 2.5).
LOCAL_MOVE_CYCLES = 1
#: Naive model: every gate cycle pays a teleport epoch (1 + 4 = 5x).
NAIVE_FACTOR = GATE_CYCLES + TELEPORT_CYCLES


#: Region ids are ``array('H')`` entries in a flat schedule.
_REGION_LIMIT = 2**16


def check_shape(k: int, d: Optional[int]) -> None:
    """Raise :class:`ValueError` unless ``(k, d)`` is a Multi-SIMD
    shape: ``1 <= k < 65536`` regions and ``d`` unbounded (``None``) or
    ``>= 1``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= _REGION_LIMIT:
        raise ValueError(f"k must be < {_REGION_LIMIT}, got {k}")
    if d is not None and d < 1:
        raise ValueError(f"d must be >= 1 or None, got {d}")


@dataclass(frozen=True)
class MultiSIMD:
    """A Multi-SIMD(k,d) machine configuration.

    Attributes:
        k: number of SIMD operating regions (>= 1).
        d: qubits a region can operate on per timestep; ``None`` means
            unbounded (the paper's ``d = infinity`` default).
        local_memory: per-region scratchpad capacity in qubits; ``None``
            disables local memories, ``math.inf`` models unbounded ones
            (Figure 8's "Inf" series).
    """

    k: int
    d: Optional[int] = None
    local_memory: Optional[float] = None

    def __post_init__(self) -> None:
        check_shape(self.k, self.d)
        if self.local_memory is not None and not self.local_memory >= 0:
            raise ValueError(
                f"local memory capacity must be >= 0, got "
                f"{self.local_memory}"
            )

    @property
    def has_local_memory(self) -> bool:
        return self.local_memory is not None and self.local_memory > 0

    @property
    def region_capacity(self) -> float:
        """Effective d as a float (inf when unbounded)."""
        return math.inf if self.d is None else float(self.d)

    def with_local_memory(self, capacity: Optional[float]) -> "MultiSIMD":
        """Same machine with a different scratchpad capacity."""
        return replace(self, local_memory=capacity)

    def with_k(self, k: int) -> "MultiSIMD":
        """Same machine with a different region count."""
        return replace(self, k=k)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        d = "inf" if self.d is None else str(self.d)
        lm = (
            ""
            if self.local_memory is None
            else f", local={self.local_memory:g}"
        )
        return f"Multi-SIMD({self.k},{d}{lm})"


def split_epoch(moves):
    """Partition one movement epoch's moves by kind.

    The canonical classification step every billing path shares
    (movement derivation, EPR planning, NUMA re-billing, replay, and
    the execution engine). ``moves`` is any iterable of objects with a
    ``kind`` attribute of ``"teleport"`` or ``"local"``.

    Returns:
        ``(teleports, local_moves)`` as two lists, preserving order.
    """
    teleports = [m for m in moves if m.kind == "teleport"]
    locals_ = [m for m in moves if m.kind == "local"]
    return teleports, locals_


def loc_label(loc: tuple) -> str:
    """EPR channel label of a location: ``"global"``, ``"region{r}"``
    or ``"local{r}"`` — the ``pair_counts`` keys every EPR ledger
    (movement derivation, EPR planning, the engine) shares."""
    return "global" if loc[0] == "global" else f"{loc[0]}{loc[1]}"


def epoch_cycles(
    teleports: int, local_moves: int, teleport_rounds: int = 1
) -> int:
    """Canonical cost of one movement epoch.

    The paper's rule (Sections 2.5, 3.2): an epoch with any
    teleportation costs :data:`TELEPORT_CYCLES` ("If any SIMD regions
    in a timestep have a global move, the full four cycle move time is
    retained"), an epoch with only ballistic local moves costs
    :data:`LOCAL_MOVE_CYCLES`, and an empty epoch is free.

    Args:
        teleports / local_moves: move counts by kind.
        teleport_rounds: serialization factor for bandwidth-limited
            teleport epochs (see :func:`repro.arch.numa.numa_runtime`);
            1 for the unconstrained model.
    """
    if teleport_rounds < 1:
        raise ValueError(
            f"teleport_rounds must be >= 1, got {teleport_rounds}"
        )
    if teleports:
        return TELEPORT_CYCLES * teleport_rounds
    if local_moves:
        return LOCAL_MOVE_CYCLES
    return 0


def split_machine(machine: MultiSIMD, cores: int) -> MultiSIMD:
    """Divide a total Multi-SIMD(k,d) budget over ``cores`` cores.

    The region budget ``k`` is split evenly — comparisons between a
    single ``Multi-SIMD(k,d)`` chip and ``cores`` cores of
    ``Multi-SIMD(k/cores, d)`` then hold the total region count fixed.
    ``d`` and the local-memory capacity are per-region properties and
    carry over unchanged.

    Raises:
        ValueError: ``cores`` < 1, or ``k`` not divisible by ``cores``.
    """
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if machine.k % cores:
        raise ValueError(
            f"cannot split k={machine.k} regions evenly over "
            f"{cores} core(s)"
        )
    return machine.with_k(machine.k // cores)


def parse_capacity(text: Optional[str]) -> Optional[float]:
    """Parse a local-memory capacity spelling.

    The one canonical encoding used by the CLI: ``None``/``"none"``
    disables local memories, ``"inf"`` models unbounded ones, any other
    spelling must parse as a non-negative number (NaN is not one).

    Raises:
        ValueError: on a non-numeric, NaN or negative spelling.
    """
    if text is None or text == "none":
        return None
    if text == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"bad local-memory capacity {text!r} "
            "(expected 'none', 'inf', or a number)"
        ) from None
    if not value >= 0:
        raise ValueError(
            f"local-memory capacity must be >= 0, got {text!r}"
        )
    return value
