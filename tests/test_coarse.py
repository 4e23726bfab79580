"""Tests for the hierarchical coarse-grained scheduler (Algorithm 3)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.module import Module
from repro.core.operation import CallSite, Operation
from repro.core.qubits import Qubit
from repro.sched.coarse import (
    CoarseResult,
    Placement,
    best_dim,
    coarse_length_profile,
    schedule_coarse,
)

Q = [Qubit("q", i) for i in range(16)]


class TestBestDim:
    def test_min_cost_within_budget(self):
        dims = {1: 100, 2: 60, 4: 40}
        assert best_dim(dims, 4) == (4, 40)
        assert best_dim(dims, 2) == (2, 60)
        assert best_dim(dims, 1) == (1, 100)

    def test_tie_prefers_narrow(self):
        assert best_dim({1: 50, 2: 50}, 4) == (1, 50)

    def test_no_fit_raises(self):
        with pytest.raises(ValueError):
            best_dim({4: 10}, 2)


def module_with(body, name="m"):
    return Module(name, (), list(body))


class TestSerialAndParallel:
    def test_pure_gates_serial_chain(self):
        body = [Operation("T", (Q[0],)) for _ in range(5)]
        res = schedule_coarse(module_with(body), {}, k=4, gate_cost=1)
        assert res.total_length == 5
        assert res.total_width == 1

    def test_independent_gates_parallelize(self):
        body = [Operation("H", (Q[i],)) for i in range(4)]
        res = schedule_coarse(module_with(body), {}, k=4, gate_cost=1)
        assert res.total_length == 1
        assert res.total_width == 4

    def test_k_constrains_parallel_gates(self):
        body = [Operation("H", (Q[i],)) for i in range(4)]
        res = schedule_coarse(module_with(body), {}, k=2, gate_cost=1)
        assert res.total_length == 2
        assert res.total_width == 2

    def test_independent_calls_parallelize(self):
        dims = {"box": {1: 10}}
        body = [CallSite("box", (Q[i],)) for i in range(3)]
        res = schedule_coarse(module_with(body), dims, k=3)
        assert res.total_length == 10
        assert res.total_width == 3

    def test_dependent_calls_serialize(self):
        dims = {"box": {1: 10}}
        body = [CallSite("box", (Q[0],)), CallSite("box", (Q[0],))]
        res = schedule_coarse(module_with(body), dims, k=4)
        assert res.total_length == 20

    def test_width_budget_splits_banks(self):
        """A bank of 8 independent blackboxes on k=2 takes 4 rounds —
        the Figure 9 mechanism."""
        dims = {"rot": {1: 100}}
        body = [CallSite("rot", (Q[i],)) for i in range(8)]
        for k, expect in ((1, 800), (2, 400), (4, 200), (8, 100)):
            res = schedule_coarse(module_with(body), dims, k=k)
            assert res.total_length == expect


class TestFlexibleDimensions:
    def test_wide_dim_used_when_alone(self):
        dims = {"box": {1: 100, 4: 30}}
        body = [CallSite("box", (Q[0],))]
        res = schedule_coarse(module_with(body), dims, k=4)
        assert res.total_length == 30
        assert res.total_width == 4

    def test_narrow_dims_chosen_to_coexist(self):
        """Two independent boxes on k=2: each should take width 1
        (cost 60) in parallel rather than serialize at width 2."""
        dims = {"box": {1: 60, 2: 50}}
        body = [CallSite("box", (Q[0],)), CallSite("box", (Q[1],))]
        res = schedule_coarse(module_with(body), dims, k=2)
        assert res.total_length == 60
        assert res.total_width == 2

    def test_iterations_multiply_cost(self):
        dims = {"box": {1: 7}}
        body = [CallSite("box", (Q[0],), iterations=5)]
        res = schedule_coarse(module_with(body), dims, k=1)
        assert res.total_length == 35

    def test_call_overhead_added_per_call(self):
        dims = {"box": {1: 10}}
        body = [CallSite("box", (Q[0],))]
        res = schedule_coarse(
            module_with(body), dims, k=1, call_overhead=4
        )
        assert res.total_length == 14

    def test_gate_cost_parameter(self):
        body = [Operation("T", (Q[0],)) for _ in range(3)]
        res = schedule_coarse(module_with(body), {}, k=1, gate_cost=5)
        assert res.total_length == 15

    def test_missing_callee_dims_raise(self):
        body = [CallSite("ghost", (Q[0],))]
        with pytest.raises(KeyError):
            schedule_coarse(module_with(body), {}, k=1)

    def test_empty_module(self):
        res = schedule_coarse(module_with([]), {}, k=2)
        assert res.total_length == 0
        assert res.total_width == 0


class TestMixedBodies:
    def test_gates_and_calls_respect_dependencies(self):
        dims = {"box": {1: 10}}
        body = [
            Operation("H", (Q[0],)),
            CallSite("box", (Q[0],)),
            Operation("T", (Q[0],)),
        ]
        res = schedule_coarse(module_with(body), dims, k=2, gate_cost=1)
        assert res.total_length == 12

    def test_staggered_starts_allowed(self):
        """Pipeline parallelism: a dependent op can start mid-way
        through an unrelated long box (Algorithm 3's
        max(totalL+1, te))."""
        dims = {"long": {1: 100}}
        body = [
            CallSite("long", (Q[0],)),     # 0..100
            Operation("H", (Q[1],)),        # can run at t=0
            Operation("T", (Q[1],)),        # t=1 — inside the long box
        ]
        res = schedule_coarse(module_with(body), dims, k=2, gate_cost=1)
        assert res.total_length == 100  # not 102

    def test_placements_reported(self):
        dims = {"box": {1: 10}}
        body = [CallSite("box", (Q[0],)), CallSite("box", (Q[1],))]
        res = schedule_coarse(module_with(body), dims, k=2)
        assert len(res.placements) == 2
        assert all(p.finish - p.start == 10 for p in res.placements)

    def test_parallelized_counter(self):
        dims = {"box": {1: 10}}
        body = [CallSite("box", (Q[0],)), CallSite("box", (Q[1],))]
        res = schedule_coarse(module_with(body), dims, k=2)
        assert res.parallelized == 2
        serial = schedule_coarse(
            module_with([CallSite("box", (Q[0],))] * 2), dims, k=2
        )
        assert serial.parallelized == 0


class TestParallelized:
    @pytest.mark.parametrize(
        "spans, expected",
        [
            ([], 0),
            ([(0, 0), (0, 0)], 0),  # zero-length at one point
            ([(0, 4), (2, 2)], 2),  # zero-length strictly inside
            ([(0, 4), (4, 4)], 0),  # zero-length at a finish
            ([(0, 4), (0, 0)], 0),  # zero-length at a start
            ([(1, 3), (1, 3)], 2),  # identical
            ([(0, 2), (2, 5), (5, 6)], 0),  # touching chain
            ([(0, 10), (1, 2), (3, 4), (11, 12)], 3),
        ],
    )
    def test_edge_cases(self, spans, expected):
        placements = [Placement(i, a, b, 1) for i, (a, b) in enumerate(spans)]
        assert CoarseResult("m", 4, 0, 0, placements).parallelized == expected


class TestNoWidthFits:
    """A statement whose table has no width within k raises one
    ValueError naming the module, the statement and the callee, from
    every placement path."""

    body = [Operation("H", (Q[0],)), CallSite("box", (Q[1],))]

    @pytest.mark.parametrize(
        "table, k",
        [
            # One width and several: the per-width scan, and at k = 1
            # the profile's closed form.
            ({2: 5}, 1),
            ({4: 7}, 2),
            ({2: 5, 4: 3}, 1),
            ({3: 5, 4: 3}, 2),
        ],
    )
    def test_both_entry_points(self, table, k):
        module = module_with(self.body, name="outer")
        pattern = r"module 'outer', statement 1 \(call to 'box'\)"
        with pytest.raises(ValueError, match=pattern):
            schedule_coarse(module, {"box": table}, k=k)
        with pytest.raises(ValueError, match=pattern):
            coarse_length_profile(module, {"box": table}, [k])

    def test_closed_form_names_first_in_criticality_order(self):
        """At k = 1 the first offending statement placed is the first
        in criticality order: the taller chain's, not program order's."""
        body = [
            CallSite("wide", (Q[0],)),
            CallSite("wide", (Q[1],)),
            Operation("T", (Q[1],)),
        ]
        module = module_with(body, name="outer")
        dims = {"wide": {2: 5}}
        pattern = r"statement 1 \(call to 'wide'\)"
        with pytest.raises(ValueError, match=pattern):
            coarse_length_profile(module, dims, [1])
        with pytest.raises(ValueError, match=pattern):
            schedule_coarse(module, dims, k=1)

    def test_fits_when_k_allows(self):
        """A width-4 box fills k = 4 and the gate waits for it; a
        width-2 box leaves the gate a region at k = 4 only."""
        module = module_with(self.body)
        assert schedule_coarse(module, {"box": {4: 7}}, k=4).total_length == 8
        assert coarse_length_profile(module, {"box": {2: 5}}, [2, 4]) == {
            2: 6,
            4: 5,
        }

    def test_raises_under_optimize_flag(self):
        """Not an assert: ``python -O`` raises the same ValueError."""
        code = (
            "from repro.core.module import Module\n"
            "from repro.core.operation import CallSite\n"
            "from repro.core.qubits import Qubit\n"
            "from repro.sched.coarse import schedule_coarse\n"
            "m = Module('m', (), [CallSite('box', (Qubit('q', 0),))])\n"
            "try:\n"
            "    schedule_coarse(m, {'box': {2: 5}}, k=1)\n"
            "except ValueError as exc:\n"
            "    print('ValueError', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.startswith("ValueError module 'm', statement 0")
