"""Unit + property tests for the dependence DAG."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit

Q = [Qubit("q", i) for i in range(8)]


def ops_chain(n, qubit=Q[0]):
    return [Operation("T", (qubit,)) for _ in range(n)]


class TestConstruction:
    def test_serial_chain_on_one_qubit(self):
        dag = DependenceDAG(ops_chain(4))
        assert dag.preds == [[], [0], [1], [2]]
        assert dag.succs == [[1], [2], [3], []]

    def test_independent_ops_have_no_edges(self):
        dag = DependenceDAG(
            [Operation("H", (Q[i],)) for i in range(4)]
        )
        assert all(not p for p in dag.preds)
        assert dag.sources() == [0, 1, 2, 3]

    def test_shared_operand_creates_dependency(self):
        # Two CNOTs sharing only the control: still dependent (no-cloning
        # rule — any common operand is a dependency, Section 3.1.1).
        dag = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("CNOT", (Q[0], Q[2])),
            ]
        )
        assert dag.preds[1] == [0]

    def test_multi_operand_dedup(self):
        # A successor sharing two operands gets one edge, not two.
        dag = DependenceDAG(
            [
                Operation("CNOT", (Q[0], Q[1])),
                Operation("CNOT", (Q[0], Q[1])),
            ]
        )
        assert dag.preds[1] == [0]

    def test_adjacent_chain_only(self):
        # Third op on a qubit depends on the second, not the first.
        dag = DependenceDAG(ops_chain(3))
        assert dag.preds[2] == [1]

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            DependenceDAG(ops_chain(3), weights=[1, 2])

    def test_empty(self):
        dag = DependenceDAG([])
        assert dag.n == 0
        assert dag.critical_path_length() == 0


class TestPaths:
    def test_chain_critical_path(self):
        dag = DependenceDAG(ops_chain(5))
        assert dag.critical_path_length() == 5

    def test_weighted_critical_path(self):
        # Two independent chains; weights make the shorter chain critical.
        ops = [
            Operation("T", (Q[0],)),
            Operation("T", (Q[0],)),
            Operation("T", (Q[1],)),
        ]
        dag = DependenceDAG(ops, weights=[1, 1, 10])
        assert dag.critical_path_length() == 10

    def test_heights_and_depths_chain(self):
        dag = DependenceDAG(ops_chain(4))
        assert dag.heights() == [4, 3, 2, 1]
        assert dag.depths() == [1, 2, 3, 4]

    def test_slack_zero_on_critical_path(self):
        ops = ops_chain(3) + [Operation("H", (Q[1],))]
        dag = DependenceDAG(ops)
        slack = dag.slack()
        assert slack[0] == slack[1] == slack[2] == 0
        assert slack[3] == 2  # the lone H can float anywhere


class TestUtilities:
    def test_qubit_chains(self):
        ops = [
            Operation("CNOT", (Q[0], Q[1])),
            Operation("H", (Q[0],)),
            Operation("H", (Q[1],)),
        ]
        chains = DependenceDAG(ops).qubit_chains()
        assert chains[Q[0]] == [0, 1]
        assert chains[Q[1]] == [0, 2]

    def test_indegrees_is_fresh_copy(self):
        dag = DependenceDAG(ops_chain(3))
        deg = dag.indegrees()
        deg[1] = 99
        assert dag.indegrees()[1] == 1


# --- property-based tests --------------------------------------------------

@st.composite
def random_ops(draw):
    n_qubits = draw(st.integers(2, 6))
    qs = [Qubit("q", i) for i in range(n_qubits)]
    n_ops = draw(st.integers(0, 30))
    ops = []
    for _ in range(n_ops):
        arity = draw(st.integers(1, 2))
        operands = draw(
            st.lists(
                st.sampled_from(qs), min_size=arity, max_size=arity,
                unique=True,
            )
        )
        gate = "H" if arity == 1 else "CNOT"
        ops.append(Operation(gate, tuple(operands)))
    return ops


class TestProperties:
    @given(random_ops())
    @settings(max_examples=60)
    def test_edges_point_forward(self, ops):
        dag = DependenceDAG(ops)
        for i, preds in enumerate(dag.preds):
            for p in preds:
                assert p < i

    @given(random_ops())
    @settings(max_examples=60)
    def test_heights_decrease_along_edges(self, ops):
        dag = DependenceDAG(ops)
        h = dag.heights()
        for i, succs in enumerate(dag.succs):
            for s in succs:
                assert h[i] > h[s]

    @given(random_ops())
    @settings(max_examples=60)
    def test_critical_path_bounds(self, ops):
        dag = DependenceDAG(ops)
        cp = dag.critical_path_length()
        assert cp <= dag.n
        if dag.n:
            # Any single qubit's op chain is a lower bound.
            longest_chain = max(
                (len(v) for v in dag.qubit_chains().values()), default=0
            )
            assert cp >= longest_chain
