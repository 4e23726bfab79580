"""Replayable op streams (:mod:`repro.core.opstream`) and the lazy
pass adapters (:mod:`repro.passes.stream`).

The load-bearing contract is replayability: every fresh iteration of a
stream must yield the identical op sequence, and the composed
``leaf_stream`` must emit exactly the ops the decompose-then-flatten
rewrite kept in ``tests/oracle`` places in the corresponding leaf body.
"""

from __future__ import annotations

import pytest

from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core import ProgramBuilder
from repro.core.operation import Operation
from repro.core.opstream import (
    GeneratorStream,
    ListStream,
    as_stream,
    iter_chunks,
    materialize,
)
from repro.core.qubits import Qubit
from repro.passes.decompose import decompose_program
from repro.passes.resource import total_gate_counts
from repro.passes.stream import (
    decomposed_gate_counts,
    leaf_stream,
    plan_flatten,
)
from tests.oracle.reference_flatten import front_end_reference

Q = [Qubit("q", i) for i in range(4)]
OPS = [
    Operation("H", (Q[0],)),
    Operation("CNOT", (Q[0], Q[1])),
    Operation("T", (Q[1],)),
    Operation("CNOT", (Q[2], Q[3])),
    Operation("H", (Q[3],)),
]


def op_key(op: Operation):
    return (op.gate, tuple(str(q) for q in op.qubits), op.angle)


class TestOpStream:
    def test_list_stream_replays(self):
        s = ListStream(OPS)
        assert list(s) == OPS
        assert list(s) == OPS  # second pass identical
        assert len(s) == 5

    def test_generator_stream_replays(self):
        calls = []

        def factory():
            calls.append(1)
            return iter(OPS)

        s = GeneratorStream(factory, length_hint=5)
        assert list(s) == OPS
        assert list(s) == OPS
        assert len(calls) == 2  # fresh iterator per pass
        assert len(s) == 5

    def test_unknown_length_raises(self):
        s = GeneratorStream(lambda: iter(OPS))
        with pytest.raises(TypeError):
            len(s)

    def test_as_stream_coercions(self):
        s = ListStream(OPS)
        assert as_stream(s) is s
        assert list(as_stream(OPS)) == OPS

        pb = ProgramBuilder()
        main = pb.module("main")
        q = main.register("q", 2)
        main.h(q[0])
        main.cnot(q[0], q[1])
        prog = pb.build("main")
        got = materialize(as_stream(prog.entry_module))
        assert [op.gate for op in got] == ["H", "CNOT"]

    def test_as_stream_rejects_non_leaf(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        sub.h(p[0])
        main = pb.module("main")
        q = main.register("q", 1)
        main.call("sub", [q[0]])
        prog = pb.build("main")
        with pytest.raises(ValueError, match="not a leaf"):
            as_stream(prog.entry_module)


class TestIterChunks:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 100])
    def test_chunks_preserve_order(self, window):
        chunks = list(iter_chunks(ListStream(OPS), window))
        assert all(len(c) <= window for c in chunks)
        assert [op for c in chunks for op in c] == OPS

    def test_none_is_one_chunk(self):
        chunks = list(iter_chunks(ListStream(OPS), None))
        assert chunks == [OPS]

    def test_empty_stream(self):
        assert list(iter_chunks(ListStream([]), 4)) == []
        assert list(iter_chunks(ListStream([]), None)) == []

    def test_bad_window(self):
        with pytest.raises(ValueError):
            list(iter_chunks(ListStream(OPS), 0))


@pytest.mark.parametrize("key", benchmark_names())
def test_leaf_stream_matches_materialized_bodies(key):
    """``leaf_stream`` emits exactly the leaf bodies of the
    decompose-then-flatten rewrite kept in ``tests/oracle``, op for
    op."""
    spec = BENCHMARKS[key]
    prog = spec.build()
    ref, _flat, _total = front_end_reference(prog, spec.fth, True, None, False)
    leaves = [
        name for name in ref.topological_order() if ref.module(name).is_leaf
    ]
    assert leaves
    for name in leaves:
        body = ref.module(name).body
        streamed = materialize(leaf_stream(prog, name))
        assert len(streamed) == len(body)
        assert [op_key(o) for o in streamed] == [
            op_key(o) for o in body
        ]


@pytest.mark.parametrize("key", benchmark_names())
def test_decomposed_counts_and_plan_match_pipeline(key):
    """Flattening *decisions* from hierarchical counts match the
    oracle's decompose-then-flatten rewrite, module for module."""
    spec = BENCHMARKS[key]
    prog = spec.build()
    totals = decomposed_gate_counts(prog)
    plan = plan_flatten(prog, totals, spec.fth)
    ref, flat, total = front_end_reference(prog, spec.fth, True, None, False)
    assert totals == total_gate_counts(decompose_program(prog))
    assert totals[prog.entry] == total
    assert plan.flattened == flat.flattened
    assert plan.percent_flattened == flat.percent_flattened
    assert plan.order == ref.topological_order()
    for name in plan.order:
        assert plan.is_leaf_after(name) == ref.module(name).is_leaf
