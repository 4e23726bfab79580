"""Exhaustive CTQG arithmetic verification at paper-relevant widths.

The statevector checks in ``tests/test_ctqg.py`` are width-capped
(2-3 bits) by the 2^n amplitude cost. The bit-sliced reversible
backend removes that cap: every kernel here is proven over *all*
inputs at widths 2-9 (adder: 2^19 states at width 9, past the default
18-bit exhaustive limit), with ancilla restoration enforced on every
lane. Multiply sweeps exhaustively to width 4 and samples above (its
input register is 4n bits wide)."""

import pytest

from repro.core.qubits import AncillaAllocator, Qubit
from repro.passes import ctqg
from repro.sim.reversible import verify_reference

WIDTHS = list(range(2, 10))


def reg(name, n):
    return [Qubit(name, i) for i in range(n)]


@pytest.mark.parametrize("n", WIDTHS)
def test_cuccaro_add_exhaustive(n):
    a, b = reg("a", n), reg("b", n)
    cin, cout = Qubit("cin", 0), Qubit("cout", 0)
    ops = ctqg.cuccaro_add(a, b, cin, cout)
    qubits = a + b + [cin, cout]
    mask = (1 << n) - 1

    def ref(x):
        av = x & mask
        bv = (x >> n) & mask
        ci = (x >> (2 * n)) & 1
        total = av + bv + ci
        return (
            av
            | ((total & mask) << n)
            | (ci << (2 * n))
            | (((total >> n) & 1) << (2 * n + 1))
        )

    report = verify_reference(
        lambda state: state.run(iter(ops)),
        qubits,
        inputs=a + b + [cin],
        outputs=qubits,
        reference=ref,
        mode="exhaustive",
        label=f"cuccaro_add width {n}",
    )
    assert report.ok, report.summary()
    assert report.lanes == 1 << (2 * n + 1)


@pytest.mark.parametrize("n", WIDTHS)
def test_compare_lt_exhaustive(n):
    a, b = reg("a", n), reg("b", n)
    flag, carry = Qubit("flag", 0), Qubit("carry", 0)
    ops = ctqg.compare_lt(a, b, flag, carry)
    qubits = a + b + [flag, carry]
    mask = (1 << n) - 1

    def ref(x):
        av = x & mask
        bv = (x >> n) & mask
        f = (x >> (2 * n)) & 1
        if av < bv:
            f ^= 1
        return av | (bv << n) | (f << (2 * n))

    report = verify_reference(
        lambda state: state.run(iter(ops)),
        qubits,
        inputs=a + b + [flag],  # flag preset too: XOR semantics
        outputs=a + b + [flag],
        reference=ref,
        clean=[carry],
        mode="exhaustive",
        label=f"compare_lt width {n}",
    )
    assert report.ok, report.summary()


@pytest.mark.parametrize("n", WIDTHS)
def test_multiply(n):
    a, b, p = reg("a", n), reg("b", n), reg("p", 2 * n)
    alloc = AncillaAllocator()
    ops = ctqg.multiply(a, b, p, alloc)
    qubits = a + b + p + alloc.all_qubits()
    mask_p = (1 << (2 * n)) - 1
    mask = (1 << n) - 1

    def ref(x):
        av = x & mask
        bv = (x >> n) & mask
        pv = (x >> (2 * n)) & mask_p
        pv = (pv + av * bv) & mask_p
        return av | (bv << n) | (pv << (2 * n))

    # 4n input bits: exhaustive through width 4 (2^16 lanes), sampled
    # above — mode="auto" with the limit pinned so the split is stable.
    report = verify_reference(
        lambda state: state.run(iter(ops)),
        qubits,
        inputs=a + b + p,  # product preset: accumulate semantics
        outputs=a + b + p,
        reference=ref,
        clean=alloc.all_qubits(),
        mode="auto",
        exhaustive_limit=16,
        samples=512,
        label=f"multiply width {n}",
    )
    assert report.ok, report.summary()
    assert report.mode == ("exhaustive" if n <= 4 else "sampled")


@pytest.mark.parametrize("n", [2, 4, 6])
def test_controlled_add_exhaustive(n):
    ctl = Qubit("ctl", 0)
    a, b = reg("a", n), reg("b", n)
    alloc = AncillaAllocator()
    ops = ctqg.controlled_add(ctl, a, b, alloc)
    qubits = [ctl] + a + b + alloc.all_qubits()
    mask = (1 << n) - 1

    def ref(x):
        cv = x & 1
        av = (x >> 1) & mask
        bv = (x >> (n + 1)) & mask
        if cv:
            bv = (bv + av) & mask
        return cv | (av << 1) | (bv << (n + 1))

    report = verify_reference(
        lambda state: state.run(iter(ops)),
        qubits,
        inputs=[ctl] + a + b,
        outputs=[ctl] + a + b,
        reference=ref,
        clean=alloc.all_qubits(),
        mode="exhaustive",
        label=f"controlled_add width {n}",
    )
    assert report.ok, report.summary()


@pytest.mark.parametrize("value,n", [(0, 4), (5, 4), (11, 4), (37, 6)])
def test_add_const_exhaustive(value, n):
    b = reg("b", n)
    alloc = AncillaAllocator()
    ops = ctqg.add_const(value, b, alloc)
    qubits = b + alloc.all_qubits()
    mask = (1 << n) - 1

    def ref(x):
        return (x + value) & mask

    report = verify_reference(
        lambda state: state.run(iter(ops)),
        qubits,
        inputs=b,
        outputs=b,
        reference=ref,
        clean=alloc.all_qubits(),
        mode="exhaustive",
        label=f"add_const {value} width {n}",
    )
    assert report.ok, report.summary()
