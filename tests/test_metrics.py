"""Tests for schedule metrics: hierarchical critical path and the
paper's speedup definitions."""

from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import NAIVE_FACTOR
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core.builder import ProgramBuilder
from repro.core.dag import DependenceDAG
from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation
from repro.core.qubits import Qubit
from repro.sched.metrics import (
    comm_speedup,
    hierarchical_critical_path,
    module_critical_path,
    parallel_speedup,
)
from repro.toolflow import _front_end


def _dag_critical_paths(program: Program) -> Dict[str, int]:
    """The reference: each module's weighted dependence DAG, with a
    call weighing ``iterations * CP(callee)``."""
    cp: Dict[str, int] = {}
    for name in program.topological_order():
        body = program.module(name).body
        weights = [
            1 if isinstance(stmt, Operation)
            else stmt.iterations * cp[stmt.callee]
            for stmt in body
        ]
        cp[name] = DependenceDAG(body, weights=weights).critical_path_length()
    return cp


GATES_BY_ARITY = {1: ("H", "T", "X"), 2: ("CNOT", "SWAP"), 3: ("Toffoli",)}


@st.composite
def hierarchies(draw) -> Program:
    """A call hierarchy whose calls nest 2-3 deep below ``main``.

    Level 0 holds the leaves ``empty`` (no body) and ``leaf``; every
    module of a higher level, ``main`` included, calls at least one
    module of the level right below it, so the nesting depth is exact.
    The first module of each level calls the first one below it, so
    ``main`` always reaches ``empty``. Calls repeat 1-4 times.
    ``empty`` and any drawn empty body give callees a critical path
    of 0.
    """
    depth = draw(st.integers(min_value=2, max_value=3))
    params = [Qubit("p", i) for i in range(4)]

    def call(qubits, callee):
        args = draw(st.permutations(qubits))[: len(callee.params)]
        iterations = draw(st.integers(min_value=1, max_value=4))
        return CallSite(callee.name, tuple(args), iterations)

    def body(qubits, callees, must_call):
        callees = [c for c in callees if len(c.params) <= len(qubits)]
        must_call = [c for c in must_call if len(c.params) <= len(qubits)]
        stmts = []
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            if callees and draw(st.booleans()):
                stmts.append(call(qubits, draw(st.sampled_from(callees))))
            else:
                arity = draw(
                    st.integers(min_value=1, max_value=min(3, len(qubits)))
                )
                operands = draw(st.permutations(qubits))[:arity]
                gate = draw(st.sampled_from(GATES_BY_ARITY[arity]))
                stmts.append(Operation(gate, tuple(operands)))
        if must_call:
            at = draw(st.integers(min_value=0, max_value=len(stmts)))
            stmts.insert(at, call(qubits, draw(st.sampled_from(must_call))))
        return stmts

    # ``empty`` is first and fits every caller (2 params).
    levels = [[
        Module("empty", params=params[:2]),
        Module("leaf", params=params[:3], body=body(params[:3], [], [])),
    ]]
    for level in range(1, depth):
        below = [m for mods in levels for m in mods]
        mods = []
        for j in range(draw(st.integers(min_value=1, max_value=2))):
            # The first module of a level fits every caller (2 params).
            own = params[: 2 if j == 0 else draw(st.integers(2, 4))]
            must_call = levels[-1][:1] if j == 0 else levels[-1]
            mods.append(
                Module(f"m{level}_{j}", params=own,
                       body=body(own, below, must_call))
            )
        levels.append(mods)
    qubits = [Qubit("q", i) for i in range(6)]
    below = [m for mods in levels for m in mods]
    main = Module("main", body=body(qubits, below, levels[-1][:1]))
    return Program(below + [main], "main")


class TestHierarchicalCriticalPath:
    def test_flat_serial(self):
        pb = ProgramBuilder()
        main = pb.module("main")
        q = main.register("q", 1)
        for _ in range(7):
            main.t(q[0])
        cp = hierarchical_critical_path(pb.build("main"))
        assert cp["main"] == 7

    def test_flat_parallel(self):
        pb = ProgramBuilder()
        main = pb.module("main")
        q = main.register("q", 5)
        for qb in q:
            main.h(qb)
        cp = hierarchical_critical_path(pb.build("main"))
        assert cp["main"] == 1

    def test_call_weight_expands(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        for _ in range(4):
            sub.t(p[0])
        main = pb.module("main")
        q = main.register("q", 1)
        main.call("sub", [q[0]], iterations=3)
        main.h(q[0])
        cp = hierarchical_critical_path(pb.build("main"))
        assert cp["sub"] == 4
        assert cp["main"] == 3 * 4 + 1

    def test_parallel_calls_dont_add(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        for _ in range(4):
            sub.t(p[0])
        main = pb.module("main")
        q = main.register("q", 2)
        main.call("sub", [q[0]])
        main.call("sub", [q[1]])
        cp = hierarchical_critical_path(pb.build("main"))
        assert cp["main"] == 4

    def test_cp_at_paper_scale(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        sub.t(p[0])
        main = pb.module("main")
        q = main.register("q", 1)
        main.call("sub", [q[0]], iterations=10 ** 11)
        cp = hierarchical_critical_path(pb.build("main"))
        assert cp["main"] == 10 ** 11


class TestDAGFreeCriticalPath:
    """The one-pass finish-map recurrence equals the weighted
    dependence DAG's longest chain, module by module."""

    @pytest.mark.parametrize("decompose", [True, False])
    @pytest.mark.parametrize("key", benchmark_names())
    def test_registry_after_front_end(self, key, decompose):
        spec = BENCHMARKS[key]
        program, _plan, _total = _front_end(
            spec.build(), spec.fth, decompose, None, False
        )
        assert hierarchical_critical_path(program) == _dag_critical_paths(
            program
        )

    @settings(max_examples=60, deadline=None)
    @given(program=hierarchies())
    def test_generated_hierarchies(self, program):
        cp = hierarchical_critical_path(program)
        assert cp == _dag_critical_paths(program)
        assert cp["empty"] == 0

    def test_module_helper_on_zero_weight_callee(self):
        q = [Qubit("q", i) for i in range(2)]
        body = [
            Operation("H", (q[0],)),
            CallSite("nop", (q[0], q[1]), iterations=3),
            Operation("CNOT", (q[0], q[1])),
        ]
        assert module_critical_path(body, {"nop": 0}) == 2
        assert module_critical_path(body, {"nop": 5}) == 17
        assert module_critical_path([], {}) == 0


class TestSpeedups:
    def test_parallel_speedup(self):
        assert parallel_speedup(100, 50) == 2.0

    def test_comm_speedup_baseline_is_naive(self):
        # runtime equal to the naive model -> speedup exactly 1.
        assert comm_speedup(100, NAIVE_FACTOR * 100) == 1.0

    def test_comm_speedup_scales(self):
        assert comm_speedup(100, 100) == float(NAIVE_FACTOR)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            parallel_speedup(10, 0)
        with pytest.raises(ValueError):
            comm_speedup(10, 0)
