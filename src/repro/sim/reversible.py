"""Bit-packed reversible simulation: semantic checking at paper scale.

The statevector simulator (:mod:`repro.sim.statevector`) verifies the
toolflow exactly but caps out near 22 qubits — far short of the
10^5..10^7-gate CTQG arithmetic the streaming pipeline schedules. The
gates CTQG emits (X, CNOT, Toffoli, SWAP, Fredkin) are classical
permutations of the computational basis, so a leaf body can be executed
over *every* input with plain python integers:

* **single input** — :class:`ReversibleSimulator` packs the whole
  register file into one ``int`` (qubit ``i`` = bit ``i``, the same
  little-endian convention as :meth:`Simulator.basis_state`) and applies
  each gate with a couple of shift/mask operations: O(ops), no numpy,
  no ``2^n`` anything.

* **batched** — :class:`SlicedState` *transposes* the state: one big
  int per qubit, where bit ``j`` of qubit ``i``'s vector is that
  qubit's value on input lane ``j``. A gate then acts on every lane at
  once (``CNOT`` is ``vec[t] ^= vec[c]``; ``Toffoli`` is
  ``vec[t] ^= vec[a] & vec[b]``), so sweeping all ``2^17`` inputs of a
  width-8 adder costs ~150 bigint operations, not ``2^17`` runs. Lanes
  are loaded and read back through one linear-time transposition
  (packed bytes -> binary digit strings -> ``int``, every step in C).

Everything else here is the verification vocabulary built on those two
engines: a gate classifier that *refuses* anything non-classical (with
the offending op located — never silently mis-simulated), exhaustive
and seeded-sample input generators, bit-identical equivalence of two op
sequences (program order vs. schedule replay), reference-function
checking against a registered spec (:mod:`repro.sim.specs`), and
minimal-counterexample extraction when a check fails.

Phase-diagonal gates (Z, S, T, CZ, CCZ, Rz, ...) fix every basis state
up to phase; they are classified separately and treated as the identity
permutation only when the caller opts in (``allow_phase``). ``Y`` acts
as X with a per-state phase and is simulated as X — the same answer
:func:`repro.sim.verify.truth_table` extracts from the statevector.
"""

from __future__ import annotations

import os
import random
import sys
from array import array
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.operation import Operation
from ..core.qubits import Qubit

__all__ = [
    "REVERSIBLE_GATES",
    "PHASE_GATES",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_SAMPLES",
    "classify_gate",
    "NonReversibleOpError",
    "SweepTooLargeError",
    "VerificationError",
    "ReversibleSimulator",
    "SlicedState",
    "compile_ops",
    "exhaustive_patterns",
    "sliced_patterns",
    "sample_inputs",
    "CounterExample",
    "VerifyReport",
    "run_reversible",
    "truth_table_reversible",
    "check_permutation_reversible",
    "verify_equivalent",
    "verify_reference",
    "schedule_ops",
    "streamed_schedule_ops",
]

#: Gates that permute the computational basis (Y acts as X up to a
#: per-state phase and is simulated as X).
REVERSIBLE_GATES = frozenset({"X", "Y", "CNOT", "Toffoli", "SWAP", "Fredkin"})

#: Diagonal gates: identity on basis states up to phase. Simulated as
#: the identity permutation when ``allow_phase`` is set, refused
#: otherwise.
PHASE_GATES = frozenset(
    {"Z", "S", "Sdag", "T", "Tdag", "CZ", "CCZ", "Rz", "CRz"}
)

#: Sweep every input when the input register is at most this many bits
#: (2^18 lanes = 32 KiB per qubit vector); sample above it.
DEFAULT_EXHAUSTIVE_LIMIT = 18

#: Default lane count for sampled sweeps.
DEFAULT_SAMPLES = 256

# Compiled instruction opcodes (tuple[0]).
_OP_X = 0
_OP_CNOT = 1
_OP_TOFFOLI = 2
_OP_SWAP = 3
_OP_FREDKIN = 4

Instr = Tuple[int, ...]

# Lane transposition tables for ``bytes.translate``: _BIT_DIGITS[b]
# maps a byte to the ASCII digit of its bit b.
_BIT_DIGITS = [
    bytes(b"01"[(x >> b) & 1] for x in range(256)) for b in range(8)
]
_M64 = (1 << 64) - 1


def classify_gate(gate: str) -> str:
    """``"reversible"``, ``"phase"`` or ``"irreversible"``."""
    if gate in REVERSIBLE_GATES:
        return "reversible"
    if gate in PHASE_GATES:
        return "phase"
    return "irreversible"


class NonReversibleOpError(ValueError):
    """An op outside the classical-permutation subset was located.

    Raised *instead of* mis-simulating: H/Rx/Ry create superpositions,
    Prep/Meas are not permutations at all, and phase gates are only
    admitted when the caller explicitly opts in. ``op`` and ``index``
    pin down the offending statement.
    """

    def __init__(self, op: Operation, index: int, reason: str):
        self.op = op
        self.index = index
        self.reason = reason
        operands = ", ".join(repr(q) for q in op.qubits)
        super().__init__(
            f"op {index}: {op.gate}({operands}) is not classically "
            f"reversible ({reason})"
        )


def _refuse(op: Operation, index: int) -> NonReversibleOpError:
    kind = classify_gate(op.gate)
    if kind == "phase":
        reason = "phase-diagonal; pass allow_phase=True to treat as identity"
    else:
        reason = "not a basis-state permutation"
    return NonReversibleOpError(op, index, reason)


def compile_ops(
    ops: Iterable[Operation],
    index: Mapping[Qubit, int],
    allow_phase: bool = False,
    start: int = 0,
) -> List[Instr]:
    """Lower ops to compact instruction tuples over qubit indices.

    Phase gates compile to nothing when ``allow_phase`` is set. Raises
    :class:`NonReversibleOpError` (with the op's absolute position,
    offset by ``start``) on anything outside the subset.
    """
    out: List[Instr] = []
    for i, op in enumerate(ops):
        gate = op.gate
        q = op.qubits
        if gate == "CNOT":
            out.append((_OP_CNOT, index[q[0]], index[q[1]]))
        elif gate == "Toffoli":
            out.append((_OP_TOFFOLI, index[q[0]], index[q[1]], index[q[2]]))
        elif gate == "X" or gate == "Y":
            out.append((_OP_X, index[q[0]]))
        elif gate == "SWAP":
            out.append((_OP_SWAP, index[q[0]], index[q[1]]))
        elif gate == "Fredkin":
            out.append((_OP_FREDKIN, index[q[0]], index[q[1]], index[q[2]]))
        elif gate in PHASE_GATES:
            if not allow_phase:
                raise _refuse(op, start + i)
        else:
            raise _refuse(op, start + i)
    return out


class ReversibleSimulator:
    """Single-input engine: the register file as one packed ``int``.

    Mirrors the statevector :class:`~repro.sim.statevector.Simulator`'s
    basis conventions — ``index`` maps qubits to bit positions and
    :meth:`basis_state` packs little-endian — so the two agree verbatim
    on the shared gate subset.
    """

    def __init__(self, qubits: Sequence[Qubit]):
        self.qubits: Tuple[Qubit, ...] = tuple(qubits)
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("duplicate qubits")
        self.index: Dict[Qubit, int] = {
            q: i for i, q in enumerate(self.qubits)
        }
        self.n = len(self.qubits)
        self.state = 0

    def reset(self, value: int = 0) -> None:
        """Set the packed state (bit ``i`` = qubit ``i``)."""
        if not 0 <= value < (1 << self.n):
            raise ValueError(f"state {value} out of range for {self.n} qubits")
        self.state = value

    def set_bits(self, bits: Mapping[Qubit, int]) -> None:
        """Force individual qubits to given classical values."""
        for q, v in bits.items():
            i = self.index[q]
            if v:
                self.state |= 1 << i
            else:
                self.state &= ~(1 << i)

    def bit(self, q: Qubit) -> int:
        return (self.state >> self.index[q]) & 1

    def basis_state(self) -> int:
        """The packed state — named for parity with the statevector
        simulator (here the state is always a basis state)."""
        return self.state

    def apply(
        self, op: Operation, allow_phase: bool = False, at: int = 0
    ) -> None:
        gate = op.gate
        q = op.qubits
        idx = self.index
        s = self.state
        if gate == "CNOT":
            s ^= ((s >> idx[q[0]]) & 1) << idx[q[1]]
        elif gate == "Toffoli":
            s ^= ((s >> idx[q[0]]) & (s >> idx[q[1]]) & 1) << idx[q[2]]
        elif gate == "X" or gate == "Y":
            s ^= 1 << idx[q[0]]
        elif gate == "SWAP":
            a, b = idx[q[0]], idx[q[1]]
            d = ((s >> a) ^ (s >> b)) & 1
            s ^= (d << a) | (d << b)
        elif gate == "Fredkin":
            c, a, b = idx[q[0]], idx[q[1]], idx[q[2]]
            d = ((s >> a) ^ (s >> b)) & (s >> c) & 1
            s ^= (d << a) | (d << b)
        elif gate in PHASE_GATES:
            if not allow_phase:
                raise _refuse(op, at)
        else:
            raise _refuse(op, at)
        self.state = s

    def run(self, ops: Iterable[Operation], allow_phase: bool = False) -> int:
        """Apply ``ops`` in order; returns the number of ops applied."""
        count = 0
        for op in ops:
            self.apply(op, allow_phase=allow_phase, at=count)
            count += 1
        return count


def exhaustive_patterns(bits: int) -> List[int]:
    """The ``2^bits``-lane input vectors of an exhaustive sweep.

    Pattern ``i`` has bit ``j`` set iff input value ``j`` has bit ``i``
    set — i.e. lane ``j`` *is* the input ``j``. Built from repeating
    byte patterns, not by looping lanes: bits 0-2 repeat ``0xAA``,
    ``0xCC`` and ``0xF0`` in every byte, and bit ``i >= 3`` alternates
    runs of ``2^(i-3)`` zero and ``0xFF`` bytes.
    """
    lanes = 1 << bits
    size = (lanes + 7) // 8
    ones = (1 << lanes) - 1  # below 8 lanes the one byte overhangs
    out: List[int] = []
    for i in range(bits):
        if i < 3:
            pattern = bytes([(0xAA, 0xCC, 0xF0)[i]]) * size
        else:
            run = 1 << (i - 3)
            pattern = (bytes(run) + b"\xff" * run) * (size // (2 * run))
        out.append(int.from_bytes(pattern, "little") & ones)
    return out


def sliced_patterns(values: Sequence[int], bits: int) -> List[int]:
    """Transpose explicit input ``values`` into per-bit lane vectors:
    pattern ``i`` has bit ``j`` set iff ``values[j]`` has bit ``i``
    (bits of a value at or above ``bits`` are ignored).

    Transposing twice is the identity, so ``sliced_patterns(vecs,
    lanes)`` also reads per-lane values back out of lane vectors.

    Linear time: each value is laid out as little-endian bytes at a
    fixed stride (one ``array`` slot up to 64 bits, one ``to_bytes``
    above); bit ``i`` is the strided byte column ``i // 8``, spelled one
    ASCII digit per lane and parsed by ``int(s, 2)`` in linear time.
    """
    if not values:
        return [0] * bits
    if bits <= 64:
        try:
            raw = array("Q", values)
        except OverflowError:  # a value is negative or >= 2^64
            raw = array("Q", [v & _M64 for v in values])
        if sys.byteorder == "big":
            raw.byteswap()
        packed, stride = raw.tobytes(), 8
    else:
        mask = (1 << bits) - 1
        stride = (bits + 7) // 8
        packed = b"".join(
            (v & mask).to_bytes(stride, "little") for v in values
        )
    return [  # lane 0 = lowest digit
        int(packed[i // 8::stride].translate(_BIT_DIGITS[i % 8])[::-1], 2)
        for i in range(bits)
    ]


def sample_inputs(bits: int, count: int, seed: int = 0) -> List[int]:
    """Deterministic sample of ``count`` distinct ``bits``-bit values.

    Corner cases first (0, 1, all-ones, alternating masks, top bit),
    then seeded pseudo-random fill — so lane 0 of a sampled sweep is
    always the all-zeros input and a counterexample at a corner prints
    the simplest possible witness.
    """
    if bits <= 0:
        return [0]
    space = 1 << bits
    if count >= space:
        return list(range(space))
    full = space - 1
    alt = full // 3 if bits >= 2 else 1  # 0b0101...
    corners = [0, 1, full, alt, full ^ alt, 1 << (bits - 1)]
    out: List[int] = []
    seen: Dict[int, None] = {}
    for v in corners:
        if v not in seen:
            seen[v] = None
            out.append(v)
        if len(out) >= count:
            return out[:count]
    rng = random.Random((seed << 8) ^ bits)
    attempts = 0
    while len(out) < count and attempts < 64 * count:
        v = rng.getrandbits(bits)
        attempts += 1
        if v not in seen:
            seen[v] = None
            out.append(v)
    return out


class SlicedState:
    """Bit-sliced batch state: ``vec[i]`` holds qubit ``i`` across all
    lanes (bit ``j`` = qubit ``i``'s value on input lane ``j``)."""

    def __init__(self, qubits: Sequence[Qubit], lanes: int):
        self.qubits: Tuple[Qubit, ...] = tuple(qubits)
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("duplicate qubits")
        self.index: Dict[Qubit, int] = {
            q: i for i, q in enumerate(self.qubits)
        }
        if lanes < 1:
            raise ValueError(f"need at least one lane, got {lanes}")
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self.vec: List[int] = [0] * len(self.qubits)

    def load(
        self,
        inputs: Sequence[Qubit],
        values: Optional[Sequence[int]] = None,
    ) -> None:
        """Load input lanes: exhaustive over ``inputs`` when ``values``
        is None (requires ``lanes == 2**len(inputs)``), else one lane
        per explicit value. Non-input qubits stay 0."""
        bits = len(inputs)
        if values is None:
            if self.lanes != 1 << bits:
                raise ValueError(
                    f"exhaustive load over {bits} inputs needs "
                    f"{1 << bits} lanes, state has {self.lanes}"
                )
            pats = exhaustive_patterns(bits)
        else:
            if len(values) != self.lanes:
                raise ValueError(
                    f"{len(values)} values for {self.lanes} lanes"
                )
            pats = sliced_patterns(values, bits)
        for q, pat in zip(inputs, pats):
            self.vec[self.index[q]] = pat

    def apply_compiled(self, instrs: Sequence[Instr]) -> None:
        """Apply pre-compiled instructions to every lane at once."""
        vec = self.vec
        mask = self.mask
        for ins in instrs:
            code = ins[0]
            if code == _OP_CNOT:
                vec[ins[2]] ^= vec[ins[1]]
            elif code == _OP_TOFFOLI:
                vec[ins[3]] ^= vec[ins[1]] & vec[ins[2]]
            elif code == _OP_X:
                vec[ins[1]] ^= mask
            elif code == _OP_SWAP:
                a, b = ins[1], ins[2]
                vec[a], vec[b] = vec[b], vec[a]
            else:  # _OP_FREDKIN
                c, a, b = ins[1], ins[2], ins[3]
                d = (vec[a] ^ vec[b]) & vec[c]
                vec[a] ^= d
                vec[b] ^= d

    def run(
        self,
        ops: Iterable[Operation],
        allow_phase: bool = False,
        at: int = 0,
    ) -> int:
        """Stream ops through all lanes in one pass (no instruction
        list is materialized). Returns the number of ops consumed."""
        idx = self.index
        vec = self.vec
        mask = self.mask
        count = 0
        for op in ops:
            gate = op.gate
            q = op.qubits
            if gate == "CNOT":
                vec[idx[q[1]]] ^= vec[idx[q[0]]]
            elif gate == "Toffoli":
                vec[idx[q[2]]] ^= vec[idx[q[0]]] & vec[idx[q[1]]]
            elif gate == "X" or gate == "Y":
                vec[idx[q[0]]] ^= mask
            elif gate == "SWAP":
                a, b = idx[q[0]], idx[q[1]]
                vec[a], vec[b] = vec[b], vec[a]
            elif gate == "Fredkin":
                c, a, b = idx[q[0]], idx[q[1]], idx[q[2]]
                d = (vec[a] ^ vec[b]) & vec[c]
                vec[a] ^= d
                vec[b] ^= d
            elif gate in PHASE_GATES:
                if not allow_phase:
                    raise _refuse(op, at + count)
            else:
                raise _refuse(op, at + count)
            count += 1
        return count

    def extract(self, lane: int, outputs: Sequence[Qubit]) -> int:
        """Pack ``outputs`` (little-endian) for one lane."""
        out = 0
        idx = self.index
        vec = self.vec
        for i, q in enumerate(outputs):
            out |= ((vec[idx[q]] >> lane) & 1) << i
        return out

    def output_vectors(self, outputs: Sequence[Qubit]) -> List[int]:
        return [self.vec[self.index[q]] for q in outputs]


@dataclass(frozen=True)
class CounterExample:
    """The smallest-lane input on which two executions disagree."""

    lane: int
    input_value: int
    expected: int
    got: int
    inputs: Tuple[Qubit, ...]
    outputs: Tuple[Qubit, ...]

    def _format(self, qubits: Tuple[Qubit, ...], packed: int) -> str:
        groups: Dict[str, List[int]] = {}
        order: List[str] = []
        for i, q in enumerate(qubits):
            if q.register not in groups:
                groups[q.register] = []
                order.append(q.register)
            groups[q.register].append((packed >> i) & 1)
        parts = []
        for name in order:
            bits = groups[name]
            value = sum(b << i for i, b in enumerate(bits))
            parts.append(f"{name}={value}")
        return " ".join(parts)

    def describe(self) -> str:
        return (
            f"input {self.input_value} "
            f"({self._format(self.inputs, self.input_value)}): "
            f"expected {self._format(self.outputs, self.expected)}, "
            f"got {self._format(self.outputs, self.got)}"
        )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one sweep: what was checked and how hard."""

    ok: bool
    mode: str  # "exhaustive" | "sampled"
    input_bits: int
    lanes: int
    ops: int
    label: str = ""
    counterexample: Optional[CounterExample] = None

    def summary(self) -> str:
        scope = (
            f"all {self.lanes} inputs"
            if self.mode == "exhaustive"
            else f"{self.lanes} sampled inputs"
        )
        head = f"{self.label or 'circuit'}: {self.ops} ops over {scope}"
        if self.ok:
            return f"{head}: OK"
        assert self.counterexample is not None
        return f"{head}: MISMATCH at {self.counterexample.describe()}"


class VerificationError(Exception):
    """A semantic check failed: the report carries the counterexample."""

    def __init__(self, module: str, report: VerifyReport):
        self.module = module
        self.report = report
        super().__init__(f"verification failed for {module!r}: "
                         f"{report.summary()}")


class SweepTooLargeError(Exception):
    """An exhaustive sweep whose lane vectors exceed the memory this
    process may use; refused before anything is allocated."""


def _memory_limit() -> Optional[int]:
    """Bytes this process may use: the ``RLIMIT_AS`` soft limit when one
    is set, else physical memory (``None`` on Windows, which has
    neither)."""
    if sys.platform == "win32":
        return None
    import resource

    soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        return soft
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _plan_lanes(
    input_bits: int,
    vectors: int,
    mode: str,
    exhaustive_limit: int,
    samples: int,
    seed: int,
) -> Tuple[str, Optional[List[int]]]:
    """Resolve sweep mode: ``(mode, values)`` with ``values=None`` for
    an exhaustive sweep over ``vectors`` lane vectors.

    Raises:
        SweepTooLargeError: when the exhaustive sweep's lane vectors
            (``vectors x 2^input_bits`` bits) exceed
            :func:`_memory_limit`.
    """
    if mode == "auto":
        mode = (
            "exhaustive" if input_bits <= exhaustive_limit else "sampled"
        )
    if mode == "exhaustive":
        need = vectors * (1 << input_bits) // 8
        limit = _memory_limit()
        if limit is not None and need > limit:
            raise SweepTooLargeError(
                f"an exhaustive sweep over {input_bits} input bits needs "
                f"{need / 2**30:.1f} GiB of lane vectors, more than the "
                f"{limit / 2**30:.1f} GiB this process may use"
            )
        return "exhaustive", None
    if mode != "sampled":
        raise ValueError(
            f"mode must be 'auto', 'exhaustive' or 'sampled', got {mode!r}"
        )
    return "sampled", sample_inputs(input_bits, samples, seed=seed)


def _first_mismatch(
    got: Sequence[int], expected: Sequence[int]
) -> Optional[int]:
    """Lowest lane where any output vector differs (the *minimal*
    counterexample: lane order is input order in exhaustive sweeps and
    corners-first in sampled ones)."""
    diff = 0
    for g, e in zip(got, expected):
        diff |= g ^ e
    if not diff:
        return None
    return (diff & -diff).bit_length() - 1


def verify_equivalent(
    ops_a: Iterable[Operation],
    ops_b: Iterable[Operation],
    qubits: Sequence[Qubit],
    inputs: Optional[Sequence[Qubit]] = None,
    mode: str = "auto",
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    allow_phase: bool = False,
    label: str = "",
) -> VerifyReport:
    """Prove two op sequences act identically on the computational
    basis — the schedule-replay check: ``ops_a`` in program order vs.
    ``ops_b`` in schedule-linearized order, bit-identical on every lane.

    Both sequences are consumed exactly once (streaming; 10^6-op
    iterables are fine). ``inputs`` defaults to *all* qubits.
    """
    qubits = tuple(qubits)
    if inputs is None:
        inputs = qubits
    run_mode, values = _plan_lanes(  # two states, one per sequence
        len(inputs), 2 * len(qubits), mode, exhaustive_limit, samples, seed
    )
    lanes = (1 << len(inputs)) if values is None else len(values)
    state_a = SlicedState(qubits, lanes)
    state_a.load(inputs, values)
    state_b = SlicedState(qubits, lanes)
    state_b.load(inputs, values)
    count_a = state_a.run(ops_a, allow_phase=allow_phase)
    count_b = state_b.run(ops_b, allow_phase=allow_phase)
    lane = _first_mismatch(state_b.vec, state_a.vec)
    if lane is None:
        return VerifyReport(
            True, run_mode, len(inputs), lanes, max(count_a, count_b),
            label=label,
        )
    input_value = lane if values is None else values[lane]
    cex = CounterExample(
        lane=lane,
        input_value=input_value,
        expected=state_a.extract(lane, qubits),
        got=state_b.extract(lane, qubits),
        inputs=tuple(inputs),
        outputs=qubits,
    )
    return VerifyReport(
        False, run_mode, len(inputs), lanes, max(count_a, count_b),
        label=label, counterexample=cex,
    )


def verify_reference(
    run_circuit: Callable[[SlicedState], int],
    qubits: Sequence[Qubit],
    inputs: Sequence[Qubit],
    outputs: Sequence[Qubit],
    reference: Callable[[int], int],
    clean: Sequence[Qubit] = (),
    mode: str = "auto",
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    label: str = "",
) -> VerifyReport:
    """Check a circuit against a pure-python reference function.

    ``run_circuit`` applies the circuit to a loaded :class:`SlicedState`
    and returns the op count (so callers can pre-compile a kernel once
    and apply it ``iterations`` times). ``reference`` maps a packed
    input (little-endian over ``inputs``) to the packed expected output
    (little-endian over ``outputs``). Qubits in ``clean`` must return
    to 0 on every lane — the ancilla-restored check.
    """
    run_mode, values = _plan_lanes(
        len(inputs), len(qubits), mode, exhaustive_limit, samples, seed
    )
    lanes = (1 << len(inputs)) if values is None else len(values)
    state = SlicedState(qubits, lanes)
    state.load(inputs, values)
    count = run_circuit(state)

    lane_values: Iterable[int] = range(lanes) if values is None else values
    expected_outs = [reference(v) for v in lane_values]
    expected = sliced_patterns(expected_outs, len(outputs))
    got = state.output_vectors(outputs)
    lane = _first_mismatch(got, expected)
    if lane is None and clean:
        dirty = 0
        for q in clean:
            dirty |= state.vec[state.index[q]]
        if dirty:
            lane = (dirty & -dirty).bit_length() - 1
    if lane is None:
        return VerifyReport(
            True, run_mode, len(inputs), lanes, count, label=label
        )
    input_value = lane if values is None else values[lane]
    cex = CounterExample(
        lane=lane,
        input_value=input_value,
        expected=expected_outs[lane],
        got=state.extract(lane, outputs),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )
    return VerifyReport(
        False, run_mode, len(inputs), lanes, count,
        label=label, counterexample=cex,
    )


def run_reversible(
    ops: Iterable[Operation],
    qubits: Sequence[Qubit],
    value: int = 0,
    allow_phase: bool = False,
) -> int:
    """One-shot single-input execution: pack, run, return the packed
    final state."""
    sim = ReversibleSimulator(qubits)
    sim.reset(value)
    sim.run(ops, allow_phase=allow_phase)
    return sim.state


def truth_table_reversible(
    ops: Sequence[Operation],
    inputs: Sequence[Qubit],
    outputs: Sequence[Qubit],
    all_qubits: Optional[Sequence[Qubit]] = None,
) -> Dict[int, int]:
    """Drop-in for :func:`repro.sim.verify.truth_table` on the
    reversible backend: same packing, same qubit-collection order,
    phase gates tolerated (they cannot change a truth table)."""
    if all_qubits is None:
        seen: Dict[Qubit, None] = {}
        for op in ops:
            for q in op.qubits:
                seen.setdefault(q)
        for q in list(inputs) + list(outputs):
            seen.setdefault(q)
        all_qubits = list(seen)
    bits = len(inputs)
    state = SlicedState(all_qubits, 1 << bits)
    state.load(inputs, None)
    state.run(ops, allow_phase=True)
    values = sliced_patterns(state.output_vectors(outputs), 1 << bits)
    return dict(enumerate(values))


def check_permutation_reversible(
    ops: Sequence[Operation],
    qubits: Sequence[Qubit],
    perm: Callable[[int], int],
) -> bool:
    """Drop-in for :func:`repro.sim.verify.check_permutation` on the
    reversible backend (phase gates tolerated; an op outside the
    classical subset means the circuit is not this — or any —
    permutation on the inputs checked, so it returns False rather than
    raising)."""
    try:
        report = verify_reference(
            lambda state: state.run(ops, allow_phase=True),
            qubits,
            inputs=qubits,
            outputs=qubits,
            reference=perm,
            mode="exhaustive",
        )
    except NonReversibleOpError:
        return False
    return report.ok


def schedule_ops(sched: "ScheduleLike") -> Iterator[Operation]:
    """Linearize a materialized schedule into replay order: timestep-
    major, region index ascending, insertion order within a region —
    the order every consumer of :class:`~repro.sched.types.Schedule`
    walks it in."""
    for ts in sched.timesteps:
        for nodes in ts.regions:
            for node in nodes:
                yield sched.operation(node)


def streamed_schedule_ops(
    cols: "ColumnsLike", ssched: "StreamedScheduleLike"
) -> Iterator[Operation]:
    """Linearize a streamed schedule the same way (regions_at already
    yields regions in ascending order)."""
    for t in range(ssched.length):
        for _r, nodes in ssched.regions_at(t):
            for node in nodes:
                yield cols.operation(node)


class ScheduleLike:
    """Structural protocol for :func:`schedule_ops` (duck-typed to keep
    this module import-light)."""

    timesteps: Sequence["TimestepLike"]

    def operation(self, node: int) -> Operation:  # pragma: no cover
        raise NotImplementedError


class TimestepLike:
    regions: Sequence[Sequence[int]]


class ColumnsLike:
    def operation(self, node: int) -> Operation:  # pragma: no cover
        raise NotImplementedError


class StreamedScheduleLike:
    length: int

    def regions_at(
        self, t: int
    ) -> Sequence[Tuple[int, Sequence[int]]]:  # pragma: no cover
        raise NotImplementedError
