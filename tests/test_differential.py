"""Differential battery: the fast path vs the reference pipeline.

The fast-path rewrites (:mod:`repro.core.dag`, :mod:`repro.sched.rcp`,
:mod:`repro.sched.lpfs`, :mod:`repro.sched.comm`,
:mod:`repro.sched.coarse`) promise **bit-identical** output to the
pre-optimization implementations preserved in
:mod:`repro.sched._reference`. This battery generates random programs
with hypothesis and runs every scheduler through both pipelines
(:func:`repro.fastpath.reference_pipeline` flips the dispatch), checking

* byte-identical :func:`~repro.sched.report.schedule_to_dict` exports,
* the Multi-SIMD execution invariants (dependence order, region count
  within ``k``, SIMD group width within ``d``, one gate type per group),
* that the analytic runtime equals the engine's realized runtime under
  the ideal configuration (no stalls possible), and
* identical coarse schedules and length profiles for hierarchical
  modules.

The per-test ``max_examples`` settings sum to 255 generated programs
per run (RCP schedules each under three weight settings), all seeded
by hypothesis's deterministic derandomization in CI. Generated bodies stay small (at
most 24 ops over 8 qubits), so :func:`test_registry_matches_reference`
also compiles every registry program on both pipelines.
"""

from __future__ import annotations

import json
import math
from typing import Callable, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core import ProgramBuilder
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.engine import run_schedule
from repro.fastpath import fast_path_enabled, reference_pipeline
from repro.sched import (
    CoarseResult,
    coarse_length_profile,
    derive_movement,
    schedule_coarse,
    schedule_lpfs,
    schedule_rcp,
    schedule_sequential,
    schedule_to_dict,
)
from repro.sched.rcp import RCPWeights
from repro.sched.report import _comm_to_dict
from repro.toolflow import SchedulerConfig, compile_and_schedule

N_QUBITS = 8
QUBITS = [Qubit("q", i) for i in range(N_QUBITS)]
GATES_BY_ARITY = {
    1: ("H", "T", "X", "S", "PrepZ", "MeasZ"),
    2: ("CNOT", "CZ", "SWAP"),
    3: ("Toffoli", "Fredkin"),
}


@st.composite
def leaf_bodies(draw, max_ops: int = 24) -> List[Operation]:
    """A random leaf-module body over eight qubits."""
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops: List[Operation] = []
    for _ in range(n):
        arity = draw(st.integers(min_value=1, max_value=3))
        gate = draw(st.sampled_from(GATES_BY_ARITY[arity]))
        idxs = draw(
            st.lists(
                st.integers(min_value=0, max_value=N_QUBITS - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        ops.append(Operation(gate, tuple(QUBITS[i] for i in idxs)))
    return ops


ds = st.sampled_from([None, 1, 2, 4])
ks = st.integers(min_value=1, max_value=4)


def both_pipelines(fn: Callable[[], str]):
    """Run ``fn`` once on the fast path and once on the reference
    pipeline; the callable must rebuild everything (including DAGs)
    from scratch so both dispatch points are exercised."""
    assert fast_path_enabled()
    fast = fn()
    with reference_pipeline():
        assert not fast_path_enabled()
        ref = fn()
    assert fast_path_enabled()
    return fast, ref


def schedule_bytes(ops: List[Operation], schedule) -> bytes:
    dag = DependenceDAG(list(ops))
    return json.dumps(
        schedule_to_dict(schedule(dag)), sort_keys=True
    ).encode()


def check_invariants(
    sched, dag: DependenceDAG, k: int, d: Optional[int]
) -> None:
    """The Multi-SIMD execution invariants, checked from first
    principles (independently of ``Schedule.validate``)."""
    sched.validate()
    ts_of = {}
    for t, ts in enumerate(sched.timesteps):
        assert len(ts.regions) <= k, "more SIMD regions than k"
        for region in ts.regions:
            if d is not None:
                assert len(region) <= d, "SIMD group wider than d"
            gates = {dag.statements[n].gate for n in region}
            assert len(gates) <= 1, "mixed gate types in one region"
            for n in region:
                assert n not in ts_of, "operation scheduled twice"
                ts_of[n] = t
    assert len(ts_of) == dag.n, "operation never scheduled"
    for u in range(dag.n):
        for v in dag.succs[u]:
            assert ts_of[u] < ts_of[v], "dependence order violated"


@settings(max_examples=25, deadline=None)
@given(ops=leaf_bodies())
def test_sequential_differential(ops):
    fast, ref = both_pipelines(
        lambda: schedule_bytes(ops, schedule_sequential)
    )
    assert fast == ref


#: The default weights plus two others: RCP's priority is float
#: arithmetic, so its tie-breaks must agree beyond w = 1/1/1 too.
RCP_WEIGHTS = (None, RCPWeights(0, 10, 0), RCPWeights(2, 0.5, 1))


@settings(max_examples=60, deadline=None)
@given(ops=leaf_bodies(), k=ks, d=ds)
def test_rcp_differential(ops, k, d):
    for weights in RCP_WEIGHTS:
        fast, ref = both_pipelines(
            lambda: schedule_bytes(
                ops, lambda dag: schedule_rcp(dag, k, d, weights)
            )
        )
        assert fast == ref, weights and vars(weights)
        dag = DependenceDAG(list(ops))
        check_invariants(schedule_rcp(dag, k, d, weights), dag, k, d)


@settings(max_examples=60, deadline=None)
@given(
    ops=leaf_bodies(),
    k=ks,
    d=ds,
    l_frac=st.floats(min_value=0.0, max_value=1.0),
    simd=st.booleans(),
    refill=st.booleans(),
)
def test_lpfs_differential(ops, k, d, l_frac, simd, refill):
    n_paths = 1 + int(l_frac * (k - 1))
    fast, ref = both_pipelines(
        lambda: schedule_bytes(
            ops, lambda dag: schedule_lpfs(dag, k, d, n_paths, simd, refill)
        )
    )
    assert fast == ref
    dag = DependenceDAG(list(ops))
    check_invariants(
        schedule_lpfs(dag, k, d, n_paths, simd, refill), dag, k, d
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=leaf_bodies(),
    k=st.integers(min_value=1, max_value=4),
    d=ds,
    algorithm=st.sampled_from(["rcp", "lpfs"]),
    local=st.sampled_from([None, 0, 1, 2.0, math.inf]),
)
def test_movement_differential(ops, k, d, algorithm, local):
    """Movement epochs, the communication profile and the EPR ledger
    are identical — including the order of eviction ``Move`` records
    within an epoch and of ``pair_counts`` channels — down to full
    (capacity 0/1) scratchpads."""
    machine = MultiSIMD(k=k, d=d, local_memory=local)

    def run() -> str:
        dag = DependenceDAG(list(ops))
        schedule = schedule_rcp if algorithm == "rcp" else schedule_lpfs
        sched = schedule(dag, k, d)
        stats = derive_movement(sched, machine)
        return json.dumps(
            {
                "schedule": schedule_to_dict(sched),
                "teleports": stats.teleports,
                "local_moves": stats.local_moves,
                "teleport_epochs": stats.teleport_epochs,
                "local_epochs": stats.local_epochs,
                "gate_cycles": stats.gate_cycles,
                "comm_cycles": stats.comm_cycles,
                "pair_counts": list(stats.epr.pair_counts.items()),
                "total_pairs": stats.epr.total_pairs,
                "peak_epoch_demand": stats.epr.peak_epoch_demand,
            },
            sort_keys=True,
        )

    fast, ref = both_pipelines(run)
    assert fast == ref


@settings(max_examples=30, deadline=None)
@given(
    ops=leaf_bodies(),
    k=st.integers(min_value=1, max_value=4),
    d=ds,
    algorithm=st.sampled_from(["sequential", "rcp", "lpfs"]),
    local=st.sampled_from([None, 2.0, math.inf]),
)
def test_engine_realizes_analytic_runtime(ops, k, d, algorithm, local):
    """Under the ideal engine configuration (infinite EPR rate, no
    faults, centralized memory) a fast-path schedule's realized runtime
    equals its analytic runtime with zero stalls."""
    machine = MultiSIMD(k=k, d=d, local_memory=local)
    dag = DependenceDAG(list(ops))
    if algorithm == "sequential":
        sched = schedule_sequential(dag, k, d)
    elif algorithm == "rcp":
        sched = schedule_rcp(dag, k, d)
    else:
        sched = schedule_lpfs(dag, k, d)
    derive_movement(sched, machine)
    result = run_schedule(sched, machine)
    assert result.realized_runtime == result.analytic_runtime
    assert result.stalls.total == 0
    assert result.preflight_violations == 0


@st.composite
def hierarchical_cases(draw):
    """A non-leaf module calling one leaf, plus a synthetic dimension
    table for the callee (width 1 always present, widths up to 4)."""
    pb = ProgramBuilder()
    leaf = pb.module("leaf")
    p = leaf.param_register("p", 3)
    leaf.toffoli(p[0], p[1], p[2])
    main = pb.module("main")
    q = main.register("q", N_QUBITS)
    n = draw(st.integers(min_value=1, max_value=14))
    for _ in range(n):
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=N_QUBITS - 1))
            main.gate(draw(st.sampled_from(["H", "T", "X"])), q[i])
        else:
            idxs = draw(
                st.lists(
                    st.integers(min_value=0, max_value=N_QUBITS - 1),
                    min_size=3,
                    max_size=3,
                    unique=True,
                )
            )
            iterations = draw(st.integers(min_value=1, max_value=3))
            main.call("leaf", [q[i] for i in idxs], iterations)
    program = pb.build("main")
    max_w = draw(st.integers(min_value=1, max_value=4))
    dims = {
        w: draw(st.integers(min_value=1, max_value=20))
        for w in range(1, max_w + 1)
    }
    k = draw(st.integers(min_value=1, max_value=4))
    gate_cost = draw(st.sampled_from([1, 5]))
    call_overhead = draw(st.sampled_from([0, 4]))
    return program.entry_module, dims, k, gate_cost, call_overhead


@settings(max_examples=40, deadline=None)
@given(case=hierarchical_cases())
def test_coarse_differential(case):
    module, dims, k, gate_cost, call_overhead = case
    callee_dims = {"leaf": dims}
    widths = list(range(1, k + 1))

    def run():
        result = schedule_coarse(
            module, callee_dims, k, gate_cost, call_overhead
        )
        profile = coarse_length_profile(
            module, callee_dims, widths, gate_cost, call_overhead
        )
        return result, profile

    (fast_res, fast_prof), (ref_res, ref_prof) = both_pipelines(run)
    assert isinstance(fast_res, CoarseResult)
    assert fast_res == ref_res
    assert fast_prof == ref_prof
    # The profile at k agrees with the full placement at k.
    assert fast_prof[k] == fast_res.total_length


@pytest.mark.parametrize("key", benchmark_names())
def test_registry_matches_reference(key):
    """Every registry program, both fine schedulers, at
    Multi-SIMD(4,4, local 4): per-width profiles, communication stats
    and retained schedules agree between the pipelines."""
    spec = BENCHMARKS[key]
    program = spec.build()
    machine = MultiSIMD(4, 4, local_memory=4)

    def run(algorithm: str) -> str:
        result = compile_and_schedule(
            program, machine, SchedulerConfig(algorithm), fth=spec.fth
        )
        return json.dumps(
            {
                "profiles": {
                    name: {
                        "length": p.length,
                        "runtime": p.runtime,
                        "comm": {
                            w: _comm_to_dict(c) for w, c in p.comm.items()
                        },
                    }
                    for name, p in result.profiles.items()
                },
                "schedules": {
                    name: schedule_to_dict(sched)
                    for name, sched in result.schedules.items()
                },
            },
            sort_keys=True,
        )

    for algorithm in ("rcp", "lpfs"):
        fast, ref = both_pipelines(lambda: run(algorithm))
        assert fast == ref, (key, algorithm)
