"""Synthetic paper-scale benchmarks (10^5..10^7+ gates).

The registry's eight reproductions are sized for laptop scheduling
(~10^3..10^6 gates). The paper's headline runs are 10^7..10^12; these
generators produce circuits in that regime with *tiny* hierarchical
source — a few modules and one ``iterations``-heavy call site — so the
unexpanded program costs nothing and the scale lives entirely in the
streamed leaf expansion:

* ``adder`` — a Cuccaro ripple-carry adder (MAJ/UMA chains of
  Toffoli+CNOT) applied ``iterations`` times: Toffoli-dominated,
  moderately parallel, the "arithmetic leaf" shape of SHA-1/Shor's;
* ``rotations`` — layers of arbitrary-angle Rz (each decomposing to a
  long serial Clifford+T string, Table 2) stitched by a CNOT ladder:
  the rotation-saturated, mostly-serial shape of GSE/CN.

``build_scale(kind, target_gates)`` solves for the iteration count that
lands the *post-decompose* total nearest ``target_gates`` (computed
hierarchically — nothing is expanded here). Scale runs schedule the
entry as one streamed leaf, so pick ``fth > total`` (the paper's 2M
threshold scaled to the benchmark, Section 5.2) when compiling.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.builder import ProgramBuilder
from ..core.module import Program
from ..passes.stream import decomposed_gate_counts

__all__ = ["SCALE_KINDS", "build_scale", "scale_total_gates"]

SCALE_KINDS = ("adder", "rotations")


def _adder_program(width: int, iterations: int) -> Program:
    pb = ProgramBuilder()

    maj = pb.module("maj")
    mq = maj.param_register("m", 3)
    maj.cnot(mq[2], mq[1]).cnot(mq[2], mq[0]).toffoli(mq[0], mq[1], mq[2])

    uma = pb.module("uma")
    uq = uma.param_register("u", 3)
    uma.toffoli(uq[0], uq[1], uq[2]).cnot(uq[2], uq[0]).cnot(uq[0], uq[1])

    add = pb.module("add")
    a = add.param_register("a", width)
    b = add.param_register("b", width)
    carry = add.param_register("carry", 2)  # [cin, cout]
    add.call(maj, (carry[0], b[0], a[0]))
    for i in range(1, width):
        add.call(maj, (a[i - 1], b[i], a[i]))
    add.cnot(a[width - 1], carry[1])
    for i in range(width - 1, 0, -1):
        add.call(uma, (a[i - 1], b[i], a[i]))
    add.call(uma, (carry[0], b[0], a[0]))

    main = pb.module("main")
    ra = main.register("x", width)
    rb = main.register("y", width)
    rc = main.register("c", 2)
    for q in ra:
        main.h(q)
    main.call(add, tuple(ra) + tuple(rb) + tuple(rc), iterations=iterations)
    return pb.build("main")


def _rotations_program(qubits: int, iterations: int) -> Program:
    pb = ProgramBuilder()

    layer = pb.module("layer")
    q = layer.param_register("q", qubits)
    for i in range(qubits):
        # Deterministic angles that are not pi/4 multiples, so every
        # rotation lowers to a long approximation sequence (Table 2).
        layer.rz(q[i], 0.1 + 0.05 * i)
    for i in range(qubits - 1):
        layer.cnot(q[i], q[i + 1])

    main = pb.module("main")
    reg = main.register("q", qubits)
    for qb in reg:
        main.h(qb)
    main.call(layer, tuple(reg), iterations=iterations)
    return pb.build("main")


_BUILDERS = {
    "adder": (_adder_program, {"width": 16}),
    "rotations": (_rotations_program, {"qubits": 8}),
}


def build_scale(
    kind: str, target_gates: int, **params: int
) -> Tuple[Program, int]:
    """Build a scale benchmark whose post-decompose total is nearest
    ``target_gates``. Returns ``(program, exact_total)``.

    The iteration count is solved from a 1-iteration probe's
    hierarchical gate counts; no body is ever expanded.
    """
    if kind not in _BUILDERS:
        raise ValueError(
            f"unknown scale benchmark {kind!r}; choose from {SCALE_KINDS}"
        )
    if target_gates < 1:
        raise ValueError(f"target_gates must be >= 1, got {target_gates}")
    builder, defaults = _BUILDERS[kind]
    kwargs: Dict[str, int] = {**defaults, **params}
    probe = builder(iterations=1, **kwargs)
    totals = decomposed_gate_counts(probe)
    body_name = "add" if kind == "adder" else "layer"
    per_iter = totals[body_name]
    fixed = totals[probe.entry] - per_iter
    iterations = max(1, round((target_gates - fixed) / per_iter))
    program = builder(iterations=iterations, **kwargs)
    total = fixed + iterations * per_iter
    return program, total


def scale_total_gates(program: Program) -> int:
    """Exact post-decompose gate total of a scale program's entry."""
    return decomposed_gate_counts(program)[program.entry]
