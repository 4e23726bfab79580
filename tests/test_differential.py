"""Differential battery: the pipeline vs the ``tests/oracle/`` reference.

The pipeline's kernels (:mod:`repro.core.dag`, :mod:`repro.sched.rcp`,
:mod:`repro.sched.lpfs`, :mod:`repro.sched.comm`,
:mod:`repro.sched.coarse`) promise **bit-identical** output to the
pre-optimization implementations kept in
:mod:`tests.oracle.reference_sched`. This battery generates random
programs with hypothesis and runs every scheduler through both
(:func:`tests.oracle.reference_swapped` swaps the oracle in behind the
same entry points), checking

* identical DAG edge lists and byte-identical
  :func:`~repro.sched.report.schedule_to_dict` exports,
* the Multi-SIMD execution invariants (dependence order, region count
  within ``k``, SIMD group width within ``d``, one gate type per group),
* that the analytic runtime equals the engine's realized runtime under
  the ideal configuration (no stalls possible), and
* identical coarse schedules and length profiles for hierarchical
  modules, also for the engine's coarse replays of every registry
  program over stalled (realized) leaf runtimes.

The per-test ``max_examples`` settings sum to 365 generated programs
per run (RCP schedules each under three weight settings), all seeded
by hypothesis's deterministic derandomization in CI. Generated bodies stay small (at
most 24 ops over 8 qubits), so :func:`test_registry_matches_reference`
also compiles every registry program on both pipelines.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Callable, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core import ProgramBuilder
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.engine import EngineConfig, execute_result, run_schedule
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
from repro.toolflow import (
    SchedulerConfig,
    _candidate_widths,
    compile_and_schedule,
)
from tests.oracle import reference_sched, reference_swapped

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
    """Run ``fn`` once on the pipeline and once with the oracle swapped
    in; the callable must rebuild everything (including DAGs) from
    scratch so every swapped function is exercised."""
    fast = fn()
    with reference_swapped():
        ref = fn()
    return fast, ref


def first_difference(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """Where ``a`` and ``b`` first differ, as a path like
    ``$['main'].placements[3].start`` with both values, or ``None``.

    Walks dicts, lists, tuples and dataclasses, so a mismatch between
    two multi-megabyte results reports in one line rather than through
    pytest's full diff of their reprs.
    """
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in a:
            if key not in b:
                return f"{path}[{key!r}]: missing from the second"
            found = first_difference(a[key], b[key], f"{path}[{key!r}]")
            if found is not None:
                return found
        for key in b:
            if key not in a:
                return f"{path}[{key!r}]: missing from the first"
        return None
    if isinstance(a, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return None
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.compare:
                found = first_difference(
                    getattr(a, f.name), getattr(b, f.name),
                    f"{path}.{f.name}",
                )
                if found is not None:
                    return found
        return None
    if a != b:
        return f"{path}: {a!r:.80} != {b!r:.80}"
    return None


def require_equal(fast: Any, ref: Any, label: str, parse=None) -> None:
    """``fast == ref``, failing with the first differing path
    (:func:`first_difference`, over ``parse`` of each side if given)
    instead of a diff of the whole values."""
    if fast != ref:
        if parse is not None:
            fast, ref = parse(fast), parse(ref)
        where = first_difference(fast, ref) or "(no path found)"
        pytest.fail(f"{label}: pipeline != oracle at {where}")


def schedule_bytes(ops: List[Operation], schedule) -> bytes:
    """The DAG's edge lists and the schedule's export, as one blob:
    duplicate or misordered edges can leave a schedule unchanged."""
    dag = DependenceDAG(list(ops))
    return json.dumps(
        {
            "preds": dag.preds,
            "succs": dag.succs,
            "schedule": schedule_to_dict(schedule(dag)),
        },
        sort_keys=True,
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


#: Callee name -> arity for :func:`hierarchical_cases`.
CALLEES = {"one": 1, "pair": 2, "dense": 3, "gapped": 2}
HIER_QUBITS = 12


@st.composite
def hierarchical_cases(draw):
    """A non-leaf module calling four leaves with distinct dimension
    tables, and a region budget ``k`` up to 16.

    * ``one`` is profiled at a single width (a streamed ``"entry"``
      profile gives such a table), which need not be width 1;
    * ``pair`` has one width-1 entry;
    * ``dense`` has every width from 1 to a drawn maximum;
    * ``gapped`` has the gapped width set of ``_candidate_widths(16)``:
      1, 2, 4, 8, 16.

    The width profile is taken at ``_candidate_widths(k)`` from the
    single-width table's width up, so that every table fits.
    """
    pb = ProgramBuilder()
    for name, arity in CALLEES.items():
        leaf = pb.module(name)
        p = leaf.param_register("p", arity)
        for i in range(arity):
            leaf.gate("H", p[i])
    main = pb.module("main")
    q = main.register("q", HIER_QUBITS)
    n = draw(st.integers(min_value=1, max_value=20))
    for _ in range(n):
        choice = draw(st.sampled_from(["gate", "cnot", *CALLEES]))
        if choice == "gate":
            i = draw(st.integers(min_value=0, max_value=HIER_QUBITS - 1))
            main.gate(draw(st.sampled_from(["H", "T", "X"])), q[i])
            continue
        arity = 2 if choice == "cnot" else CALLEES[choice]
        idxs = draw(
            st.lists(
                st.integers(min_value=0, max_value=HIER_QUBITS - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        if choice == "cnot":
            main.gate("CNOT", q[idxs[0]], q[idxs[1]])
        else:
            iterations = draw(st.integers(min_value=1, max_value=3))
            main.call(choice, [q[i] for i in idxs], iterations)
    program = pb.build("main")
    k = draw(st.integers(min_value=1, max_value=16))
    cost = st.integers(min_value=1, max_value=20)
    one_width = draw(st.sampled_from(_candidate_widths(k)))
    max_w = draw(st.integers(min_value=1, max_value=16))
    callee_dims = {
        "one": {one_width: draw(cost)},
        "pair": {1: draw(cost)},
        "dense": {w: draw(cost) for w in range(1, max_w + 1)},
        "gapped": {w: draw(cost) for w in _candidate_widths(16)},
    }
    widths = [w for w in _candidate_widths(k) if w >= one_width]
    gate_cost = draw(st.sampled_from([1, 5]))
    call_overhead = draw(st.sampled_from([0, 4]))
    return (
        program.entry_module, callee_dims, k, widths, gate_cost,
        call_overhead,
    )


@settings(max_examples=150, deadline=None)
@given(case=hierarchical_cases())
def test_coarse_differential(case):
    module, callee_dims, k, widths, gate_cost, call_overhead = case

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
        require_equal(fast, ref, f"{key} {algorithm}", parse=json.loads)


@pytest.mark.parametrize("key", benchmark_names())
def test_engine_coarse_replay_matches_reference(key):
    """The engine re-coarse-schedules every non-leaf module over
    realized leaf runtimes. At 0.1 EPR pairs per cycle, stalls make
    those differ from the analytic dimensions; the replays (placements,
    lengths, widths) and the realized runtime must still equal the
    oracle's."""
    spec = BENCHMARKS[key]
    result = compile_and_schedule(
        spec.build(),
        MultiSIMD(4, 4, local_memory=4),
        SchedulerConfig("lpfs"),
        fth=spec.fth,
    )
    config = EngineConfig(epr_rate=0.1)

    def run():
        execution = execute_result(result, config)
        return (
            execution.coarse,
            execution.realized,
            execution.realized_runtime,
        )

    fast, ref = both_pipelines(run)
    require_equal(fast, ref, key)
    coarse, realized, _ = fast
    assert coarse, key
    assert any(
        cost != result.profiles[name].runtime[4]
        for name, cost in realized.items()
    ), key


def test_oracle_is_live(monkeypatch):
    """Compiling a registry program under the swap runs the oracle's
    DAG edges, RCP, LPFS, movement and coarse profile, so a rename or
    an import change cannot quietly turn this battery into
    pipeline-vs-pipeline."""
    calls = dict.fromkeys(
        (
            "dag_edges_reference",
            "schedule_rcp_reference",
            "schedule_lpfs_reference",
            "derive_movement_reference",
            "coarse_length_profile_reference",
        ),
        0,
    )
    for name in calls:

        def counted(*args, _fn=getattr(reference_sched, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(reference_sched, name, counted)
    spec = BENCHMARKS["BF"]
    with reference_swapped():
        for algorithm in ("rcp", "lpfs"):
            compile_and_schedule(
                spec.build(),
                MultiSIMD(4, 4, local_memory=4),
                SchedulerConfig(algorithm),
                fth=spec.fth,
            )
    assert all(calls.values()), calls
