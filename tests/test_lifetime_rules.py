"""Tests for the interprocedural qubit-lifetime analysis (QL4xx)."""

from __future__ import annotations

from typing import List

from repro.analysis.dataflow import solve_bottom_up
from repro.analysis.deep import analyze_deep
from repro.analysis.lifetime_rules import (
    LifetimeAnalysis,
    emit_lifetime_events,
)
from repro.arch.machine import MultiSIMD
from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation
from repro.core.qubits import Qubit

# k=1 keeps the QL501 width-fit rule quiet on deliberately tiny
# programs so these tests see only the lifetime findings.
NARROW = MultiSIMD(k=1, d=4)


def q(name: str, index: int = 0) -> Qubit:
    return Qubit(name, index)


def deep_codes(program: Program) -> List[str]:
    return [d.code for d in analyze_deep(program, machine=NARROW).diagnostics]


def lifetime_kinds(program: Program) -> List[str]:
    summaries = solve_bottom_up(program, LifetimeAnalysis()).summaries
    return [ev.kind for ev in emit_lifetime_events(program, summaries)]


class TestDeadWrite:
    def test_prep_never_consumed(self):
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("PrepZ", (q("b"),)),
                Operation("H", (q("b"),)),
                Operation("MeasZ", (q("b"),)),
            ],
        )
        assert deep_codes(Program([main], entry="main")) == ["QL401"]

    def test_callee_that_repreps_keeps_prep_dead(self):
        # reinit's first action on its parameter is a preparation, so
        # the caller's preceding prep is never observed.
        reinit = Module(
            "reinit",
            params=(q("p"),),
            body=[
                Operation("PrepZ", (q("p"),)),
                Operation("H", (q("p"),)),
                Operation("MeasZ", (q("p"),)),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                CallSite("reinit", (q("a"),)),
            ],
        )
        assert deep_codes(Program([reinit, main], entry="main")) == [
            "QL401"
        ]

    def test_callee_use_consumes_prep(self):
        use = Module(
            "use",
            params=(q("p"),),
            body=[
                Operation("H", (q("p"),)),
                Operation("MeasZ", (q("p"),)),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                CallSite("use", (q("a"),)),
            ],
        )
        assert deep_codes(Program([use, main], entry="main")) == []


class TestUseAfterRelease:
    def _readout(self) -> Module:
        return Module(
            "readout",
            params=(q("p"),),
            body=[Operation("MeasZ", (q("p"),))],
        )

    def test_use_after_callee_measures(self):
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("H", (q("a"),)),
                CallSite("readout", (q("a"),)),
                Operation("H", (q("a"),)),
                Operation("MeasZ", (q("a"),)),
            ],
        )
        prog = Program([self._readout(), main], entry="main")
        assert deep_codes(prog) == ["QL402"]

    def test_reprep_after_callee_measures_is_clean(self):
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("H", (q("a"),)),
                CallSite("readout", (q("a"),)),
                Operation("PrepZ", (q("a"),)),
                Operation("MeasZ", (q("a"),)),
            ],
        )
        prog = Program([self._readout(), main], entry="main")
        assert deep_codes(prog) == []

    def test_iterated_call_crosses_release_boundary(self):
        # consume measures its argument; from the second repetition
        # onward each iteration acts on a qubit the previous one
        # released. Visible only when the summary is applied twice.
        consume = Module(
            "consume",
            params=(q("p"),),
            body=[
                Operation("H", (q("p"),)),
                Operation("MeasZ", (q("p"),)),
            ],
        )

        def main_with(iterations: int) -> Program:
            main = Module(
                "main",
                body=[
                    Operation("PrepZ", (q("a"),)),
                    CallSite("consume", (q("a"),), iterations=iterations),
                    Operation("PrepZ", (q("a"),)),
                    Operation("MeasZ", (q("a"),)),
                ],
            )
            return Program([consume, main], entry="main")

        assert deep_codes(main_with(3)) == ["QL402"]
        assert deep_codes(main_with(1)) == []


class TestAncillaLeak:
    def _entangler(self) -> Module:
        return Module(
            "entangler",
            params=(q("x"), q("y")),
            body=[
                Operation("H", (q("x"),)),
                Operation("CNOT", (q("x"), q("y"))),
            ],
        )

    def test_callee_dirtied_local_escapes(self):
        stage = Module(
            "stage",
            params=(q("d"),),
            body=[
                Operation("PrepZ", (q("anc"),)),
                CallSite("entangler", (q("d"), q("anc"))),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                CallSite("stage", (q("a"),)),
                Operation("MeasZ", (q("a"),)),
            ],
        )
        prog = Program([self._entangler(), stage, main], entry="main")
        assert deep_codes(prog) == ["QL403"]

    def test_owner_measures_ancilla(self):
        stage = Module(
            "stage",
            params=(q("d"),),
            body=[
                Operation("PrepZ", (q("anc"),)),
                CallSite("entangler", (q("d"), q("anc"))),
                Operation("MeasZ", (q("anc"),)),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                CallSite("stage", (q("a"),)),
                Operation("MeasZ", (q("a"),)),
            ],
        )
        prog = Program([self._entangler(), stage, main], entry="main")
        assert deep_codes(prog) == []


class TestEntangledReprep:
    def test_reprep_of_bell_partner(self):
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("PrepZ", (q("b"),)),
                Operation("H", (q("a"),)),
                Operation("CNOT", (q("a"), q("b"))),
                Operation("PrepZ", (q("b"),)),
                Operation("MeasZ", (q("a"),)),
                Operation("MeasZ", (q("b"),)),
            ],
        )
        assert deep_codes(Program([main], entry="main")) == ["QL404"]

    def test_basis_preserving_gates_keep_clean(self):
        # CNOT/Toffoli on |0>-basis qubits can't create entanglement,
        # so re-preparing afterwards is fine (ripple-carry idiom).
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("PrepZ", (q("b"),)),
                Operation("PrepZ", (q("c"),)),
                Operation("CNOT", (q("a"), q("b"))),
                Operation("Toffoli", (q("a"), q("b"), q("c"))),
                Operation("PrepZ", (q("c"),)),
                Operation("MeasZ", (q("a"),)),
                Operation("MeasZ", (q("b"),)),
                Operation("MeasZ", (q("c"),)),
            ],
        )
        assert deep_codes(Program([main], entry="main")) == []

    def test_entanglement_seen_through_call(self):
        bell = Module(
            "bell",
            params=(q("x"), q("y")),
            body=[
                Operation("H", (q("x"),)),
                Operation("CNOT", (q("x"), q("y"))),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("PrepZ", (q("b"),)),
                CallSite("bell", (q("a"), q("b"))),
                Operation("PrepZ", (q("b"),)),
                Operation("MeasZ", (q("a"),)),
                Operation("MeasZ", (q("b"),)),
            ],
        )
        prog = Program([bell, main], entry="main")
        assert deep_codes(prog) == ["QL404"]


class TestSummaries:
    def test_event_kinds_match_rule_codes(self):
        readout = Module(
            "readout",
            params=(q("p"),),
            body=[Operation("MeasZ", (q("p"),))],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("H", (q("a"),)),
                CallSite("readout", (q("a"),)),
                Operation("H", (q("a"),)),
                Operation("MeasZ", (q("a"),)),
            ],
        )
        prog = Program([readout, main], entry="main")
        assert lifetime_kinds(prog) == ["use-after-release"]

    def test_entangling_callee_groups_its_params(self):
        bell = Module(
            "bell",
            params=(q("x"), q("y")),
            body=[
                Operation("H", (q("x"),)),
                Operation("CNOT", (q("x"), q("y"))),
            ],
        )
        main = Module(
            "main",
            body=[
                Operation("PrepZ", (q("a"),)),
                Operation("PrepZ", (q("b"),)),
                CallSite("bell", (q("a"), q("b"))),
                Operation("MeasZ", (q("a"),)),
                Operation("MeasZ", (q("b"),)),
            ],
        )
        prog = Program([bell, main], entry="main")
        summaries = solve_bottom_up(prog, LifetimeAnalysis()).summaries
        # bell entangles its two parameters with each other: recorded
        # in groups (both partners visible to the caller), not taint.
        bell_summary = summaries["bell"]
        assert bell_summary.groups == ((0, 1),)
        assert all(p.used and p.exit == "active" for p in bell_summary.params)
