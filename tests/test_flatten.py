"""Tests for threshold flattening (Section 3.1.1 / Figure 4)."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.builder import ProgramBuilder
from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation
from repro.core.qubits import Qubit
from repro.passes.decompose import DecomposeConfig, decompose_program
from repro.passes.flatten import flatten_program, fully_flatten
from repro.passes.resource import total_gate_counts
from repro.sim.statevector import circuit_unitary
from repro.sim.verify import equivalent_up_to_global_phase
from repro.toolflow import _front_end
from tests.oracle.reference_flatten import (
    flatten_program_reference,
    front_end_reference,
)


def nested_program(levels=3, gates_per_level=2):
    """level0 <- level1 <- ... ; level0 is the leaf."""
    pb = ProgramBuilder()
    prev = None
    for lvl in range(levels):
        mb = pb.module(f"level{lvl}")
        q = mb.param_register("q", 1)
        for _ in range(gates_per_level):
            mb.t(q[0])
        if prev is not None:
            mb.call(prev, [q[0]], iterations=2)
        prev = f"level{lvl}"
    main = pb.module("main")
    q = main.register("q", 1)
    main.call(prev, [q[0]])
    return pb.build("main")


class TestInlineCall:
    """How ``flatten_program`` inlines one call site."""

    def test_formal_to_actual_substitution(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 2)
        sub.cnot(p[0], p[1])
        main = pb.module("main")
        q = main.register("q", 2)
        main.call("sub", [q[1], q[0]])
        prog = pb.build("main")
        flat = flatten_program(prog, fth=10 ** 9).program
        assert flat.entry_module.body == [
            Operation("CNOT", (Qubit("q", 1), Qubit("q", 0)))
        ]

    def test_locals_renamed_per_instance(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        local = sub.register("scratch", 1)
        sub.cnot(p[0], local[0])
        main = pb.module("main")
        q = main.register("q", 1)
        main.call("sub", [q[0]])
        main.call("sub", [q[0]])
        prog = pb.build("main")
        a, b = flatten_program(prog, fth=10 ** 9).program.entry_module.body
        assert a.qubits[1] != b.qubits[1]
        assert a.qubits[0] == b.qubits[0] == Qubit("q", 0)
        assert a.qubits[1] == Qubit("sub@0$scratch", 0)
        assert b.qubits[1] == Qubit("sub@1$scratch", 0)

    def test_iterations_repeat_body(self):
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        local = sub.register("scratch", 1)
        sub.cnot(p[0], local[0])
        main = pb.module("main")
        q = main.register("q", 1)
        main.call("sub", [q[0]], iterations=5)
        prog = pb.build("main")
        body = flatten_program(prog, fth=10 ** 9).program.entry_module.body
        # Locals are reused across iterations, as the called procedure
        # would reuse them.
        assert body == [
            Operation("CNOT", (Qubit("q", 0), Qubit("sub@0$scratch", 0)))
        ] * 5


class TestFlattenProgram:
    def test_threshold_zero_flattens_nothing(self):
        prog = nested_program()
        result = flatten_program(prog, fth=0)
        assert result.flattened == []

    def test_huge_threshold_flattens_everything(self):
        prog = nested_program()
        result = flatten_program(prog, fth=10 ** 9)
        assert result.program.entry_module.is_leaf
        assert result.percent_flattened == 100.0

    def test_partial_threshold(self):
        # level0: 2 gates; level1: 2 + 2*2 = 6; level2: 2 + 2*6 = 14;
        # main: 14.
        prog = nested_program()
        counts = total_gate_counts(prog)
        assert counts["level1"] == 6 and counts["level2"] == 14
        result = flatten_program(prog, fth=6)
        assert set(result.flattened) == {"level1"}
        assert result.program.module("level1").is_leaf
        assert not result.program.module("level2").is_leaf

    def test_flattening_preserves_total_gate_count(self):
        prog = nested_program()
        before = total_gate_counts(prog)["main"]
        flat = flatten_program(prog, fth=10 ** 9).program
        assert total_gate_counts(flat)["main"] == before

    def test_flattening_preserves_semantics(self):
        """The flattened entry must implement the same unitary as the
        hierarchical program (simulated on a small instance)."""
        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 2)
        sub.h(p[0]).cnot(p[0], p[1]).t(p[1])
        main = pb.module("main")
        q = main.register("q", 2)
        main.x(q[0])
        main.call("sub", [q[0], q[1]], iterations=2)
        main.z(q[1])
        prog = pb.build("main")

        flat = fully_flatten(prog)
        # Reference: manual expansion.
        ref_ops = (
            [Operation("X", (q[0],))]
            + [
                Operation("H", (q[0],)),
                Operation("CNOT", (q[0], q[1])),
                Operation("T", (q[1],)),
            ] * 2
            + [Operation("Z", (q[1],))]
        )
        u = circuit_unitary(list(flat.operations()), [q[0], q[1]])
        v = circuit_unitary(ref_ops, [q[0], q[1]])
        assert equivalent_up_to_global_phase(u, v)

    def test_figure4_shape(self, two_toffoli_program):
        """Figure 4: the decomposed, flattened two-Toffoli program is a
        30-op leaf whose DAG admits a ~21-cycle two-region schedule."""
        prog = decompose_program(two_toffoli_program)
        flat = fully_flatten(prog)
        assert flat.direct_gate_count == 30
        from repro.core.dag import DependenceDAG
        from repro.sched.lpfs import schedule_lpfs

        sched = schedule_lpfs(DependenceDAG(list(flat.body)), k=2)
        sched.validate()
        # Flattened schedule beats the 24-cycle blackbox serialization.
        assert sched.length < 24

    def test_percent_flattened_counts_existing_leaves(self):
        pb = ProgramBuilder()
        leafm = pb.module("leafm")
        q = leafm.param_register("q", 1)
        leafm.t(q[0])
        main = pb.module("main")
        mq = main.register("q", 1)
        main.call("leafm", [mq[0]])
        prog = pb.build("main")
        result = flatten_program(prog, fth=0)
        # leafm already a leaf: 1 of 2 reachable modules.
        assert result.percent_flattened == 50.0


#: Rotation angles: 0 decomposes to no op, pi/4 multiples exactly, 0.3
#: to an approximate Clifford+T string.
ANGLES = (0.0, math.pi / 4, math.pi / 2, 0.3)
FTHS = (0, 3, 10, 40, 10 ** 9)


@st.composite
def hierarchies(draw):
    """A random acyclic hierarchy whose last module is the entry.

    Each module has parameters, and every module but the entry has a
    local register ``t``. About half of the non-entry modules are made
    of angle-0 rotations only, so they decompose to nothing. Every
    other module calls the module below it (up to three iterations)
    after at least one random gate, rotation or call to a lower module,
    so instance tags shift when the ops before a call decompose, and a
    chain through an angle-0 module leaves the modules under it
    unreachable.
    """
    n_modules = draw(st.integers(min_value=2, max_value=4))
    modules = []
    for i in range(n_modules):
        params = tuple(
            Qubit("p", j) for j in range(draw(st.integers(1, 3)))
        )
        is_entry = i == n_modules - 1
        n_locals = draw(st.integers(0 if is_entry else 1, 2))
        if not is_entry and draw(st.booleans()):
            qubits = list(params) + [Qubit("t", j) for j in range(n_locals)]
            body = [
                Operation("Rz", (q,), 0.0)
                for q in draw(st.lists(st.sampled_from(qubits),
                                       min_size=1, max_size=3))
            ]
            modules.append(Module(f"m{i}", params, body))
            continue
        kinds = draw(st.lists(
            st.sampled_from(("gate", "rotation", "call")),
            min_size=1,
            max_size=4,
        ))
        if i:
            kinds.insert(draw(st.integers(1, len(kinds))), "chain")
            n_locals = max(n_locals, len(modules[i - 1].params) - len(params))
        qubits = list(params) + [Qubit("t", j) for j in range(n_locals)]
        body = []
        for kind in kinds:
            if kind in ("call", "chain"):
                if not i:
                    continue
                callee = modules[
                    i - 1 if kind == "chain" else draw(st.integers(0, i - 1))
                ]
                if len(callee.params) > len(qubits):
                    continue
                args = draw(st.permutations(qubits))[: len(callee.params)]
                body.append(CallSite(
                    callee.name, tuple(args),
                    iterations=draw(st.integers(1, 3)),
                ))
                continue
            arity = draw(st.integers(1, min(3, len(qubits))))
            operands = tuple(draw(st.permutations(qubits))[:arity])
            if kind == "rotation":
                angle = draw(st.sampled_from(ANGLES))
                gate = "Rz" if arity == 1 else "CRz"
                body.append(Operation(gate, operands[: min(arity, 2)], angle))
            else:
                gate = {1: draw(st.sampled_from(("H", "T", "X"))),
                        2: "CNOT", 3: "Toffoli"}[arity]
                body.append(Operation(gate, operands))
        modules.append(Module(f"m{i}", params, body))
    return Program(modules, f"m{n_modules - 1}")


def _outcome(fn):
    """``fn()``'s result, or its exception's type and message."""
    try:
        return fn()
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def _front_end_view(out):
    """What the front ends must agree on: module order, params and
    bodies, the flattened names, percent flattened and gate total."""
    if len(out) == 2:  # an exception
        return out
    program, plan, total = out
    return (
        [
            (name, program.module(name).params, program.module(name).body)
            for name in program.topological_order()
        ],
        list(plan.flattened),
        plan.percent_flattened,
        total,
    )


class TestFrontEndDifferential:
    """The front end against ``tests/oracle``'s whole-program rewrite
    (optimize -> decompose -> flatten callees-first with
    ``inline_call``)."""

    @settings(max_examples=400, deadline=None)
    @given(
        program=hierarchies(),
        fth=st.sampled_from(FTHS),
        decompose=st.booleans(),
        optimize=st.booleans(),
        config=st.sampled_from((None, DecomposeConfig(epsilon=0.25))),
    )
    def test_front_end_matches_reference(
        self, program, fth, decompose, optimize, config
    ):
        args = (program, fth, decompose, config, optimize)
        fast = _outcome(lambda: _front_end(*args))
        ref = _outcome(lambda: front_end_reference(*args))
        assert _front_end_view(fast) == _front_end_view(ref)
        if len(fast) == 3:
            # The front end keeps the reachable modules, in plan order.
            assert list(fast[0].modules) == fast[0].topological_order()

    @settings(max_examples=100, deadline=None)
    @given(program=hierarchies(), fth=st.sampled_from(FTHS))
    def test_flatten_program_matches_reference(self, program, fth):
        """``flatten_program`` keeps every module, orphaned and
        unreachable ones included, exactly as the rewrite did."""
        fast = flatten_program(program, fth)
        ref = flatten_program_reference(program, fth)
        assert fast.program.modules == ref.program.modules
        assert fast.flattened == ref.flattened
        assert fast.percent_flattened == ref.percent_flattened
