"""Simulator-backed verification of the benchmark generators' kernels.

The scheduling experiments only need the benchmarks' *structure*, but
wherever a kernel is small enough to simulate we also verify it
computes what it claims: the BF NAND gate, TFP's edge oracle against
its adjacency matrix, Grover's phase oracle, and the SHA-1 round's
adder semantics.
"""


import pytest

from repro.benchmarks.boolean_formula import build_boolean_formula
from repro.benchmarks.grovers import build_grovers
from repro.benchmarks.sha1 import build_sha1
from repro.benchmarks.tfp import _edge_constant, build_tfp
from repro.core.qubits import Qubit
from repro.passes.flatten import flatten_program
from repro.passes.stream import stream_flatten
from repro.sim.statevector import Simulator, circuit_unitary
from repro.sim.verify import truth_table


class TestBFNandGate:
    def test_nand_truth_table(self):
        prog = build_boolean_formula(x=2, y=2)
        nand = prog.module("nand_gate")
        a, b, out = nand.params
        tbl = truth_table(
            list(nand.operations()), [a, b], [out],
            all_qubits=[a, b, out],
        )
        for v in range(4):
            av, bv = v & 1, (v >> 1) & 1
            assert tbl[v] == (1 - (av & bv))

    def test_formula_evaluation_2x2(self):
        """The 4-leaf NAND tree: result = NAND(NAND(b0,b1), NAND(b2,b3))."""
        prog = build_boolean_formula(x=2, y=2)
        # Just the evaluate_formula module, its nand_gate calls inlined.
        ev = prog.module("evaluate_formula")
        ops = list(stream_flatten(prog, "evaluate_formula"))
        board = [q for q in ev.params if q.register == "board"]
        result = [q for q in ev.params if q.register == "result"][0]
        universe = list(dict.fromkeys(
            board + [result] + [q for op in ops for q in op.qubits]
        ))
        tbl = truth_table(ops, board, [result], all_qubits=universe)
        for v in range(16):
            bits = [(v >> i) & 1 for i in range(4)]
            expect = 1 - (
                (1 - (bits[0] & bits[1])) & (1 - (bits[2] & bits[3]))
            )
            assert tbl[v] == expect, (bits, tbl[v], expect)


class TestTFPEdgeOracle:
    def test_edge_oracle_matches_adjacency(self):
        n = 4  # w = 2 -> 5 qubits + ancillas: simulable
        prog = build_tfp(n=n, iterations=1)
        edge = prog.module("edge_oracle")
        u = [q for q in edge.params if q.register == "u"]
        v = [q for q in edge.params if q.register == "v"]
        flag = [q for q in edge.params if q.register == "flag"][0]
        ops = list(edge.operations())
        universe = list(dict.fromkeys(
            u + v + [flag] + [q for op in ops for q in op.qubits]
        ))
        adjacency = _edge_constant(n)
        tbl = truth_table(ops, u + v, [flag], all_qubits=universe)
        for uv in range(n):
            for vv in range(n):
                inp = uv | (vv << 2)
                expect = (adjacency >> (uv * n + vv)) & 1
                assert tbl[inp] == expect, (uv, vv)

    def test_adjacency_constant_is_irreflexive(self):
        for n in (3, 4, 5):
            adj = _edge_constant(n)
            for i in range(n):
                assert not (adj >> (i * n + i)) & 1

    def test_adjacency_is_dense(self):
        n = 5
        adj = _edge_constant(n)
        edges = bin(adj).count("1")
        assert edges > n * (n - 1) / 2  # denser than half


class TestGroverOracle:
    def test_oracle_phase_flips_only_marked(self):
        n = 3
        prog = build_grovers(n=n, marked=0b101, iterations=1)
        oracle = prog.module("oracle")
        ops = list(oracle.operations())
        qs = list(oracle.params)
        universe = list(dict.fromkeys(
            qs + [q for op in ops for q in op.qubits]
        ))
        mat = circuit_unitary(ops, universe)
        dim_main = 2 ** n
        for state in range(dim_main):
            # ancillas start/end at 0 -> inspect the (state, state) entry
            amp = mat[state, state]
            if state == 0b101:
                assert amp == pytest.approx(-1)
            else:
                assert amp == pytest.approx(1)

    def test_diffusion_is_inversion_about_mean(self):
        n = 3
        prog = build_grovers(n=n, iterations=1)
        diffuse = prog.module("diffuse")
        ops = list(diffuse.operations())
        qs = list(diffuse.params)
        universe = list(dict.fromkeys(
            qs + [q for op in ops for q in op.qubits]
        ))
        mat = circuit_unitary(ops, universe)
        dim = 2 ** n
        # On the main register (ancillas clean), D = 2|s><s| - I up to
        # global phase: all off-diagonal entries equal 2/N, diagonal
        # 2/N - 1.
        block = mat[:dim, :dim]
        phase = block[0, 1] / abs(block[0, 1])
        block = block / phase
        for i in range(dim):
            for j in range(dim):
                expect = 2 / dim - (1.0 if i == j else 0.0)
                assert block[i, j] == pytest.approx(expect, abs=1e-9)

    def test_one_iteration_amplifies_marked(self):
        n = 3
        marked = 0b011
        prog = build_grovers(n=n, marked=marked, iterations=1)
        flat = flatten_program(prog, fth=2 ** 62).program
        entry = flat.entry_module
        ops = [
            op for op in entry.operations()
            if op.gate not in ("MeasZ", "MeasX")
        ]
        qs = [Qubit("q", i) for i in range(n)]
        universe = list(dict.fromkeys(
            qs + [q for op in ops for q in op.qubits]
        ))
        sim = Simulator(universe)
        sim.run(ops)
        p_marked = sim.probability_of(
            {qs[i]: (marked >> i) & 1 for i in range(n)}
        )
        # One Grover iteration on N=8: ~78% success vs 12.5% uniform.
        assert p_marked > 0.7


class TestSha1Round:
    def test_round_updates_e_correctly(self):
        """round_q1 (Parity quarter) at word_bits=2: check
        e += rotl(a,5) + parity(b,c,d) + K + w  (mod 4) on basis
        states, with a..d and w preserved."""
        w_bits = 2
        prog = build_sha1(n=8, word_bits=w_bits, rounds=4,
                          grover_iterations=1)
        rnd = prog.module("round_q1")
        regs = {}
        for name in ("a", "b", "c", "d", "e", "wt"):
            regs[name] = [q for q in rnd.params if q.register == name]
        # Inline the f_parity calls.
        ops = list(stream_flatten(prog, "round_q1"))
        universe = list(dict.fromkeys(
            [q for r in regs.values() for q in r]
            + [q for op in ops for q in op.qubits]
        ))
        assert len(universe) <= 20
        from repro.benchmarks.sha1 import _ROUND_K

        k_const = _ROUND_K[1] % (2 ** w_bits)
        rotl5 = lambda x: ((x << (5 % w_bits)) | (x >> (w_bits - 5 % w_bits))) & (2 ** w_bits - 1) if 5 % w_bits else x

        rng_cases = [
            (1, 2, 3, 0, 1, 2),
            (3, 1, 0, 2, 3, 1),
            (0, 0, 0, 0, 0, 0),
            (2, 3, 1, 1, 2, 3),
        ]
        for av, bv, cv, dv, ev, wv in rng_cases:
            sim = Simulator(universe)
            assignment = {}
            for name, val in zip(
                ("a", "b", "c", "d", "e", "wt"),
                (av, bv, cv, dv, ev, wv),
            ):
                for i, q in enumerate(regs[name]):
                    assignment[q] = (val >> i) & 1
            sim.set_bits(assignment)
            sim.run(ops)
            state = sim.basis_state()

            def read(name):
                return sum(
                    ((state >> sim.index[q]) & 1) << i
                    for i, q in enumerate(regs[name])
                )

            f = bv ^ cv ^ dv
            expect_e = (ev + rotl5(av) + f + k_const + wv) % (2 ** w_bits)
            assert read("e") == expect_e, (av, bv, cv, dv, ev, wv)
            for name, val in zip(("a", "b", "c", "d", "wt"),
                                 (av, bv, cv, dv, wv)):
                assert read(name) == val, name
