"""Unit tests for the bit-sliced reversible simulator
(:mod:`repro.sim.reversible`): gate semantics against the statevector
simulator, the closed-form exhaustive input patterns, the gate
classifier and refusal contract, sweep reports with minimal
counterexamples, and the schedule linearization helpers."""

import random

import pytest

from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.passes.ctqg import cuccaro_add
from repro.sim.reversible import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    CounterExample,
    NonReversibleOpError,
    ReversibleSimulator,
    SlicedState,
    VerificationError,
    check_permutation_reversible,
    classify_gate,
    compile_ops,
    exhaustive_patterns,
    run_reversible,
    sample_inputs,
    sliced_patterns,
    streamed_schedule_ops,
    truth_table_reversible,
    verify_equivalent,
    verify_reference,
)
from repro.sim.statevector import Simulator
from repro.sim.verify import check_permutation, truth_table


def reg(name, n):
    return [Qubit(name, i) for i in range(n)]


Q = reg("q", 4)


class TestClassifier:
    @pytest.mark.parametrize(
        "gate", ["X", "Y", "CNOT", "Toffoli", "SWAP", "Fredkin"]
    )
    def test_reversible(self, gate):
        assert classify_gate(gate) == "reversible"

    @pytest.mark.parametrize(
        "gate", ["Z", "S", "Sdag", "T", "Tdag", "CZ", "CCZ", "Rz", "CRz"]
    )
    def test_phase(self, gate):
        assert classify_gate(gate) == "phase"

    @pytest.mark.parametrize(
        "gate", ["H", "Rx", "Ry", "PrepZ", "MeasZ", "Nope"]
    )
    def test_irreversible(self, gate):
        assert classify_gate(gate) == "irreversible"


class TestRefusal:
    def test_error_locates_op(self):
        sim = ReversibleSimulator(Q)
        ops = [
            Operation("X", (Q[0],)),
            Operation("CNOT", (Q[0], Q[1])),
            Operation("H", (Q[2],)),
        ]
        with pytest.raises(NonReversibleOpError) as exc:
            sim.run(ops)
        assert exc.value.index == 2
        assert exc.value.op.gate == "H"
        assert "op 2" in str(exc.value)
        assert "not classically reversible" in str(exc.value)

    def test_phase_refused_without_opt_in(self):
        sim = ReversibleSimulator(Q)
        with pytest.raises(NonReversibleOpError) as exc:
            sim.run([Operation("T", (Q[0],))])
        assert "allow_phase" in exc.value.reason

    def test_phase_identity_with_opt_in(self):
        sim = ReversibleSimulator(Q)
        sim.reset(0b1010)
        sim.run(
            [Operation("T", (Q[0],)), Operation("CZ", (Q[1], Q[2]))],
            allow_phase=True,
        )
        assert sim.state == 0b1010

    def test_compile_ops_offsets_index_by_start(self):
        index = {q: i for i, q in enumerate(Q)}
        with pytest.raises(NonReversibleOpError) as exc:
            compile_ops([Operation("H", (Q[0],))], index, start=100)
        assert exc.value.index == 100

    def test_sliced_run_reports_stream_position(self):
        state = SlicedState(Q, 4)
        ops = [Operation("X", (Q[0],))] * 3 + [Operation("Rx", (Q[1],), 0.5)]
        with pytest.raises(NonReversibleOpError) as exc:
            state.run(iter(ops))
        assert exc.value.index == 3


class TestSingleInput:
    def test_each_gate_matches_statevector(self):
        circuits = [
            [Operation("X", (Q[0],))],
            [Operation("CNOT", (Q[0], Q[1]))],
            [Operation("Toffoli", (Q[0], Q[1], Q[2]))],
            [Operation("SWAP", (Q[1], Q[3]))],
            [Operation("Fredkin", (Q[0], Q[1], Q[2]))],
        ]
        for ops in circuits:
            for value in range(16):
                sv = Simulator(Q)
                sv.reset(value)
                sv.run(ops)
                assert run_reversible(ops, Q, value) == sv.basis_state(), (
                    f"{ops[0].gate} diverges on input {value}"
                )

    def test_set_bits_and_bit(self):
        sim = ReversibleSimulator(Q)
        sim.set_bits({Q[1]: 1, Q[3]: 1})
        assert sim.state == 0b1010
        sim.set_bits({Q[1]: 0})
        assert sim.bit(Q[1]) == 0
        assert sim.bit(Q[3]) == 1

    def test_reset_range_checked(self):
        sim = ReversibleSimulator(Q)
        with pytest.raises(ValueError):
            sim.reset(16)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            ReversibleSimulator([Q[0], Q[0]])


class TestPatterns:
    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 5, 7, 8, 11])
    def test_exhaustive_patterns_closed_form(self, bits):
        pats = exhaustive_patterns(bits)
        assert len(pats) == bits
        for value in range(1 << bits):
            for i in range(bits):
                assert (pats[i] >> value) & 1 == (value >> i) & 1
        assert all(p >> (1 << bits) == 0 for p in pats)

    def test_sliced_patterns_transpose(self):
        # Lane counts around one packed byte per bit, and bit counts
        # around the byte boundaries and the 64-bit switch from array
        # slots to one ``to_bytes`` per value.
        # Values carry up to 8 bits above ``bits`` (lane 0 all of them,
        # past 2^64 at 64 bits), which the transposition ignores;
        # negative values read as two's complement; no lanes, all zero.
        rng = random.Random(5)
        cases = [
            ([0b101, 0b010, 0b111, 0b000], 3), ([-1, -6, 3], 9), ([], 5),
        ]
        for lanes in (1, 7, 8, 9, 300):
            for bits in (0, 1, 8, 9, 64, 65, 130):
                values = [rng.getrandbits(bits + 8) for _ in range(lanes)]
                values[0] = (1 << (bits + 8)) - 1
                cases.append((values, bits))
        for values, bits in cases:
            pats = sliced_patterns(values, bits)
            assert len(pats) == bits
            mask = (1 << bits) - 1
            for i, pat in enumerate(pats):
                want = sum(
                    (((value & mask) >> i) & 1) << lane
                    for lane, value in enumerate(values)
                )
                assert pat == want, (len(values), bits, i)

    def test_sample_inputs_deterministic_and_distinct(self):
        a = sample_inputs(12, 64, seed=7)
        b = sample_inputs(12, 64, seed=7)
        assert a == b
        assert len(set(a)) == len(a) == 64
        assert all(0 <= v < 4096 for v in a)

    def test_sample_inputs_corners_first(self):
        got = sample_inputs(8, 6)
        assert got[0] == 0
        assert got[1] == 1
        assert 255 in got[:6]

    def test_sample_covers_small_spaces_exactly(self):
        assert sorted(sample_inputs(3, 100)) == list(range(8))
        assert sample_inputs(0, 5) == [0]


class TestSlicedState:
    def test_exhaustive_sweep_matches_single_input(self):
        ops = cuccaro_add(reg("a", 2), reg("b", 2), Qubit("c", 0))
        qubits = reg("a", 2) + reg("b", 2) + [Qubit("c", 0)]
        state = SlicedState(qubits, 1 << len(qubits))
        state.load(qubits)
        state.run(iter(ops))
        for value in range(1 << len(qubits)):
            assert state.extract(value, qubits) == run_reversible(
                ops, qubits, value
            )

    def test_compiled_equals_streamed(self):
        ops = cuccaro_add(reg("a", 3), reg("b", 3), Qubit("c", 0))
        qubits = reg("a", 3) + reg("b", 3) + [Qubit("c", 0)]
        lanes = 1 << len(qubits)
        a = SlicedState(qubits, lanes)
        a.load(qubits)
        a.run(iter(ops))
        b = SlicedState(qubits, lanes)
        b.load(qubits)
        b.apply_compiled(compile_ops(ops, b.index))
        assert a.vec == b.vec

    def test_load_lane_count_checked(self):
        state = SlicedState(Q, 8)
        with pytest.raises(ValueError, match="lanes"):
            state.load(Q)  # exhaustive over 4 inputs needs 16 lanes
        with pytest.raises(ValueError, match="values"):
            state.load(Q, values=[0, 1])


class TestVerifyEquivalent:
    def test_equal_circuits_pass(self):
        ops = [
            Operation("CNOT", (Q[0], Q[1])),
            Operation("Toffoli", (Q[0], Q[1], Q[2])),
        ]
        report = verify_equivalent(iter(ops), iter(list(ops)), Q)
        assert report.ok
        assert report.mode == "exhaustive"
        assert report.lanes == 16
        assert report.ops == 2
        assert "OK" in report.summary()

    def test_minimal_counterexample(self):
        a = [Operation("CNOT", (Q[0], Q[1]))]
        b = [Operation("CNOT", (Q[1], Q[0]))]
        report = verify_equivalent(iter(a), iter(b), Q)
        assert not report.ok
        cex = report.counterexample
        assert isinstance(cex, CounterExample)
        # Inputs 0b0000 agrees; 0b0001 is the smallest divergence.
        assert cex.input_value == 1
        assert "MISMATCH" in report.summary()

    def test_sampled_mode_above_limit(self):
        qs = reg("w", 24)
        ops = [Operation("X", (qs[0],))]
        report = verify_equivalent(
            iter(ops), iter(list(ops)), qs, samples=32
        )
        assert report.ok
        assert report.mode == "sampled"
        assert report.lanes == 32
        assert 24 > DEFAULT_EXHAUSTIVE_LIMIT

    def test_verification_error_carries_report(self):
        report = verify_equivalent(
            iter([Operation("X", (Q[0],))]), iter([]), Q
        )
        err = VerificationError("mod", report)
        assert err.module == "mod"
        assert "mod" in str(err)


class TestVerifyReference:
    def test_adder_reference(self):
        a, b, c = reg("a", 3), reg("b", 3), Qubit("c", 0)
        ops = cuccaro_add(a, b, c)
        qubits = a + b + [c]

        def ref(x):
            av, bv = x & 7, (x >> 3) & 7
            return av | (((av + bv) & 7) << 3)

        report = verify_reference(
            lambda state: state.run(iter(ops)),
            qubits,
            inputs=a + b,
            outputs=a + b,
            reference=ref,
            clean=[c],
        )
        assert report.ok

    def test_dirty_ancilla_is_a_counterexample(self):
        anc = Qubit("anc", 0)
        qubits = Q + [anc]
        ops = [Operation("CNOT", (Q[0], anc))]  # leaks on odd inputs
        report = verify_reference(
            lambda state: state.run(iter(ops)),
            qubits,
            inputs=Q,
            outputs=Q,
            reference=lambda x: x,
            clean=[anc],
        )
        assert not report.ok
        assert report.counterexample.input_value == 1

    def test_counterexample_describe_groups_registers(self):
        a, b = reg("a", 2), reg("b", 2)
        report = verify_reference(
            lambda state: state.run(iter([Operation("X", (b[0],))])),
            a + b,
            inputs=a + b,
            outputs=a + b,
            reference=lambda x: x,
        )
        assert not report.ok
        text = report.counterexample.describe()
        assert "a=" in text and "b=" in text


class TestDropIns:
    def test_truth_table_parity_with_statevector(self):
        a, b, c = reg("a", 3), reg("b", 3), Qubit("c", 0)
        ops = cuccaro_add(a, b, c)
        want = truth_table(ops, a + b, b, all_qubits=a + b + [c])
        got = truth_table_reversible(ops, a + b, b, all_qubits=a + b + [c])
        assert got == want
        assert truth_table(
            ops, a + b, b, all_qubits=a + b + [c], backend="reversible"
        ) == want
        # 10 outputs read back from 512-lane vectors (wider than 64
        # bits), against per-lane single-input runs; the inputs are the
        # low 9 qubits, so a lane's input value is its packed state.
        a, b = reg("a", 4), reg("b", 4)
        cin, cout = Qubit("cin", 0), Qubit("cout", 0)
        ops = cuccaro_add(a, b, cin, cout)
        qubits = a + b + [cin, cout]
        table = truth_table_reversible(ops, a + b + [cin], qubits)
        assert len(table) == 512
        for value, got in table.items():
            assert got == run_reversible(ops, qubits, value)

    def test_truth_table_collects_qubits_like_statevector(self):
        ops = [Operation("CNOT", (Q[2], Q[0]))]
        want = truth_table(ops, [Q[2]], [Q[0], Q[2]])
        assert truth_table_reversible(ops, [Q[2]], [Q[0], Q[2]]) == want

    def test_check_permutation_backends_agree(self):
        ops = [Operation("SWAP", (Q[0], Q[1]))]

        def perm(j):
            lo, hi = j & 1, (j >> 1) & 1
            return (j & ~3) | (hi) | (lo << 1)

        assert check_permutation(ops, Q, perm)
        assert check_permutation_reversible(ops, Q, perm)
        assert check_permutation(ops, Q, perm, backend="reversible")
        assert not check_permutation_reversible(ops, Q, lambda j: j ^ 4)

    def test_non_permutation_circuit_is_false_not_raise(self):
        ops = [Operation("H", (Q[0],))]
        assert not check_permutation(ops, Q, lambda j: j)
        assert not check_permutation_reversible(ops, Q, lambda j: j)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            truth_table([], [Q[0]], [Q[0]], backend="tensor")
        with pytest.raises(ValueError, match="backend"):
            check_permutation([], Q, lambda j: j, backend="tensor")


class TestScheduleLinearization:
    def test_schedule_ops_order(self):
        from repro.core.dag import DependenceDAG
        from repro.sched import schedule_lpfs

        ops = cuccaro_add(reg("a", 3), reg("b", 3), Qubit("c", 0))
        dag = DependenceDAG(list(ops))
        sched = schedule_lpfs(dag, 4, None)
        # A materialized schedule is its own op source.
        replay = list(streamed_schedule_ops(sched, sched))
        assert replay == [
            sched.operation(n)
            for _, regions in sched.iter_timesteps()
            for _, nodes in regions
            for n in nodes
        ]
        assert sorted(map(repr, replay)) == sorted(map(repr, ops))
        qubits = reg("a", 3) + reg("b", 3) + [Qubit("c", 0)]
        assert verify_equivalent(iter(ops), iter(replay), qubits).ok
