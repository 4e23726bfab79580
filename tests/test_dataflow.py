"""Tests for the interprocedural dataflow engine
(:mod:`repro.analysis.dataflow`)."""

from __future__ import annotations

from typing import Mapping

import pytest

from repro.analysis.dataflow import PowersetLattice, solve_bottom_up
from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation
from repro.core.qubits import Qubit


# ---------------------------------------------------------------------------
# A trivial analysis for exercising the engine: iteration-weighted
# operation counts (callees folded in).
# ---------------------------------------------------------------------------


class CountAnalysis:
    def __init__(self):
        self.summarize_calls = []

    def summarize(
        self, module: Module, callees: Mapping[str, int]
    ) -> int:
        self.summarize_calls.append(module.name)
        total = 0
        for stmt in module.body:
            if isinstance(stmt, Operation):
                total += 1
            else:
                total += stmt.iterations * callees[stmt.callee]
        return total


def _q(i):
    return Qubit("q", i)


def _diamond() -> Program:
    """main -> {left, right} -> leaf (classic diamond)."""
    leaf = Module("leaf", params=(_q(0),), body=[Operation("H", (_q(0),))])
    left = Module(
        "left",
        params=(_q(1),),
        body=[
            Operation("X", (_q(1),)),
            CallSite("leaf", (_q(1),)),
        ],
    )
    right = Module(
        "right",
        params=(_q(2),),
        body=[CallSite("leaf", (_q(2),), iterations=3)],
    )
    main = Module(
        "main",
        body=[
            Operation("PrepZ", (_q(3),)),
            CallSite("left", (_q(3),)),
            CallSite("right", (_q(3),)),
            Operation("MeasZ", (_q(3),)),
        ],
    )
    return Program([leaf, left, right, main], entry="main")


class TestSolveBottomUp:
    def test_counts_compose_through_calls(self):
        result = solve_bottom_up(_diamond(), CountAnalysis())
        assert result.summaries == {
            "leaf": 1,
            "left": 2,
            "right": 3,
            "main": 7,
        }

    def test_callees_summarised_before_callers(self):
        analysis = CountAnalysis()
        result = solve_bottom_up(_diamond(), analysis)
        order = analysis.summarize_calls
        assert order.index("leaf") < order.index("left")
        assert order.index("leaf") < order.index("right")
        assert order.index("left") < order.index("main")
        assert order.index("right") < order.index("main")
        # Acyclic graph: exactly one summarisation per module.
        assert sorted(order) == sorted(result.order)
        assert result.iterations == 4

    def test_unreachable_modules_are_skipped(self):
        orphan = Module("orphan", body=[Operation("H", (_q(9),))])
        base = _diamond()
        prog = Program(
            list(base.modules.values()) + [orphan], entry="main"
        )
        result = solve_bottom_up(prog, CountAnalysis())
        assert "orphan" not in result.summaries

    def test_empty_module_body(self):
        empty = Module("main", body=[])
        result = solve_bottom_up(
            Program([empty], entry="main"), CountAnalysis()
        )
        assert result.summaries == {"main": 0}

    def test_single_module_no_calls(self):
        main = Module("main", body=[Operation("H", (_q(0),))])
        result = solve_bottom_up(
            Program([main], entry="main"), CountAnalysis()
        )
        assert result.summaries == {"main": 1}

    def test_cycle_raises_before_solving(self):
        a = Module("a", body=[CallSite("b", ())])
        b = Module("b", body=[CallSite("a", ())])
        with pytest.raises(Exception):
            Program([a, b], entry="a")


class TestPowersetLattice:
    def test_lattice_laws(self):
        lat = PowersetLattice()
        a = frozenset({1, 2})
        b = frozenset({2, 3})
        assert lat.bottom() == frozenset()
        assert lat.join(a, b) == frozenset({1, 2, 3})
        assert lat.leq(lat.bottom(), a)
        assert lat.leq(a, lat.join(a, b))
        assert not lat.leq(lat.join(a, b), a)
        # join is idempotent, commutative, associative
        assert lat.join(a, a) == a
        assert lat.join(a, b) == lat.join(b, a)
