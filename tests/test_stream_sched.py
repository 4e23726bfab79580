"""Bit-identity battery: the streamed columnar pipeline vs the
materialized fast path.

The streaming pipeline's contract is that the ingestion ``window`` is
*only* a memory granularity — for any window (including the unbounded
one) the columns, the emitted schedule, the movement stream and every
profile metric are identical to the materialized pipeline's output.
This file checks that two ways:

* a registry-wide differential — every benchmark, its pinned FTh, both
  pipelines, windows {64, 1024, unbounded} — comparing profiles,
  retained leaf schedules timestep-by-timestep, and CommStats;
* hypothesis properties over random leaf bodies asserting that the
  window never changes the schedule or the movement stats, for every
  scheduler.
"""

from __future__ import annotations

import math
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.opstream import ListStream
from repro.core.qubits import Qubit
from repro.engine import EngineConfig, FaultConfig, run_schedule
from repro.engine.executor import run_schedule_stream
from repro.sched import derive_movement
from repro.sched.comm import CommStats
from repro.sched.report import _comm_to_dict, schedule_to_dict
from repro.sched.stream import (
    build_columns,
    derive_movement_stream,
    engine_epochs,
    iter_schedule_epochs,
    schedule_columns,
    to_schedule,
)
from repro.toolflow import (
    SchedulerConfig,
    compile_and_schedule,
    compile_and_schedule_streamed,
)

WINDOWS = (64, 1024, None)

# The registry battery compiles every benchmark at its pinned FTh —
# leaves are bounded by FTh, so even SHA-1 (10^9 hierarchical gates)
# stays cheap.
REGISTRY = benchmark_names()


def assert_results_identical(mat, res) -> None:
    """Every metric, profile and retained schedule must agree."""
    assert mat.total_gates == res.total_gates
    assert mat.critical_path == res.critical_path
    assert mat.flattened_percent == res.flattened_percent
    assert set(mat.profiles) == set(res.profiles)
    for name, p in mat.profiles.items():
        sp = res.profiles[name]
        assert p.is_leaf == sp.is_leaf, name
        assert p.length == sp.length, name
        assert p.runtime == sp.runtime, name
        assert set(p.comm) == set(sp.comm), name
        for w, comm in p.comm.items():
            assert _comm_to_dict(comm) == _comm_to_dict(sp.comm[w]), (
                name,
                w,
            )
    assert set(mat.schedules) == set(res.stream_schedules)
    for name, sched in mat.schedules.items():
        ssched = res.stream_schedules[name]
        assert ssched.algorithm == sched.algorithm
        assert ssched.length == len(sched.timesteps), name
        for t, ts in enumerate(sched.timesteps):
            streamed = dict(ssched.regions_at(t))
            for r, nodes in enumerate(ts.regions):
                assert streamed.get(r, []) == list(nodes), (name, t, r)


@pytest.mark.parametrize("key", REGISTRY)
@pytest.mark.parametrize("window", WINDOWS)
def test_registry_streamed_matches_materialized(key, window):
    spec = BENCHMARKS[key]
    prog = spec.build()
    machine = MultiSIMD(k=4, d=None)
    scheduler = SchedulerConfig("lpfs")
    mat = compile_and_schedule(prog, machine, scheduler, fth=spec.fth)
    res = compile_and_schedule_streamed(
        prog, machine, scheduler, fth=spec.fth, window=window
    )
    assert res.window == window
    assert_results_identical(mat, res)


@pytest.mark.parametrize("key", ["BF", "Grovers"])
@pytest.mark.parametrize("algorithm", ["rcp", "sequential"])
def test_registry_other_algorithms(key, algorithm):
    spec = BENCHMARKS[key]
    prog = spec.build()
    machine = MultiSIMD(k=4, d=4)
    scheduler = SchedulerConfig(algorithm)
    mat = compile_and_schedule(prog, machine, scheduler, fth=spec.fth)
    res = compile_and_schedule_streamed(
        prog, machine, scheduler, fth=spec.fth, window=64
    )
    assert_results_identical(mat, res)


def test_to_schedule_round_trips_regions():
    spec = BENCHMARKS["BF"]
    prog = spec.build()
    machine = MultiSIMD(k=4, d=None)
    mat = compile_and_schedule(
        prog, machine, SchedulerConfig("lpfs"), fth=spec.fth
    )
    res = compile_and_schedule_streamed(
        prog, machine, SchedulerConfig("lpfs"), fth=spec.fth
    )
    for name, sched in mat.schedules.items():
        inflated = to_schedule(
            res.columns[name], res.stream_schedules[name]
        )
        a = schedule_to_dict(sched)
        b = schedule_to_dict(inflated)
        # to_schedule carries regions, not moves (movement is derived
        # separately in the streamed pipeline) — drop the move fields.
        for doc in (a, b):
            doc.pop("teleport_moves", None)
            for ts in doc["timesteps"]:
                ts.pop("moves", None)
        assert a == b


# ---------------------------------------------------------------------------
# Hypothesis: window invariance + materialized equivalence on random
# leaf bodies (same op distribution as the fast-vs-reference battery).
# ---------------------------------------------------------------------------

N_QUBITS = 8
QUBITS = [Qubit("q", i) for i in range(N_QUBITS)]
GATES_BY_ARITY = {
    1: ("H", "T", "X", "S", "PrepZ", "MeasZ"),
    2: ("CNOT", "CZ", "SWAP"),
    3: ("Toffoli", "Fredkin"),
}


@st.composite
def leaf_bodies(draw, max_ops: int = 24) -> List[Operation]:
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


def schedule_fingerprint(ssched) -> tuple:
    return (
        ssched.algorithm,
        ssched.length,
        tuple(
            (t, tuple((r, tuple(nodes)) for r, nodes in
                      ssched.regions_at(t)))
            for t in range(ssched.length)
        ),
    )


algorithms = st.sampled_from(["sequential", "rcp", "lpfs"])
ks = st.integers(min_value=1, max_value=4)
ds = st.sampled_from([None, 1, 2, 4])
small_windows = st.sampled_from([1, 2, 3, 7, 64])


@settings(max_examples=60, deadline=None)
@given(
    ops=leaf_bodies(),
    k=ks,
    d=ds,
    algorithm=algorithms,
    window=small_windows,
)
def test_window_never_changes_schedule_or_comm(
    ops, k, d, algorithm, window
):
    """Any finite window produces the same columns (hence schedule and
    CommStats) as the unbounded one."""
    machine = MultiSIMD(k=k, d=d)
    fingerprints = []
    comms = []
    for w in (window, None):
        cols = build_columns(ListStream(ops), window=w)
        ssched = schedule_columns(cols, algorithm, k, d)
        stats = derive_movement_stream(cols, ssched, machine)
        fingerprints.append(schedule_fingerprint(ssched))
        comms.append(_comm_to_dict(stats))
    assert fingerprints[0] == fingerprints[1]
    assert comms[0] == comms[1]


@settings(max_examples=60, deadline=None)
@given(
    ops=leaf_bodies(),
    k=ks,
    d=ds,
    algorithm=algorithms,
    local=st.sampled_from([None, 1, 4, math.inf]),
)
def test_streamed_matches_materialized_random(ops, k, d, algorithm, local):
    """Columns + streamed scheduler emit the DAG pipeline's schedule
    and movement bit-for-bit, epoch by epoch, with and without
    scratchpads."""
    machine = MultiSIMD(k=k, d=d, local_memory=local)
    dag = DependenceDAG(list(ops))
    mat_sched = SchedulerConfig(algorithm).schedule(dag, k, d)
    mat_comm = derive_movement(mat_sched, machine)

    cols = build_columns(ListStream(ops), window=7)
    ssched = schedule_columns(cols, algorithm, k, d)
    stats = CommStats()
    epochs = [
        (t, list(moves))
        for t, moves, _ in iter_schedule_epochs(cols, ssched, machine, stats)
    ]

    assert ssched.length == len(mat_sched.timesteps)
    for t, ts in enumerate(mat_sched.timesteps):
        streamed = dict(ssched.regions_at(t))
        for r, nodes in enumerate(ts.regions):
            assert streamed.get(r, []) == list(nodes)
    assert epochs == [(t, ts.moves) for t, ts in enumerate(mat_sched.timesteps)]
    assert _comm_to_dict(stats) == _comm_to_dict(mat_comm)


def _faulty_config(seed: int) -> EngineConfig:
    return EngineConfig(
        epr_rate=0.5,
        faults=FaultConfig(
            epr_failure_prob=0.1,
            region_failure_prob=0.05,
            gate_error_rate=0.01,
        ),
        seed=seed,
        collect_trace=True,
    )


@settings(max_examples=25, deadline=None)
@given(
    ops=leaf_bodies(),
    k=ks,
    algorithm=algorithms,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engine_epochs_realize_identically(ops, k, algorithm, seed):
    """The engine over streamed epoch tuples matches the engine over
    the materialized schedule — clock, stalls, fault log and trace —
    under the ideal config and under finite EPR rate with faults."""
    machine = MultiSIMD(k=k, d=None)
    dag = DependenceDAG(list(ops))
    mat_sched = SchedulerConfig(algorithm).schedule(dag, k, None)
    derive_movement(mat_sched, machine)
    cols = build_columns(ListStream(ops), window=3)
    ssched = schedule_columns(cols, algorithm, k, None)

    for config in (None, _faulty_config(seed)):
        mat = run_schedule(mat_sched, machine, config, scope="leaf")
        res = run_schedule_stream(
            engine_epochs(cols, ssched, machine), k, machine, config,
            scope="leaf",
        )
        assert res.realized_runtime == mat.realized_runtime
        assert res.analytic_runtime == mat.analytic_runtime
        assert res.gate_cycles == mat.gate_cycles
        assert res.comm_cycles == mat.comm_cycles
        assert res.stalls.to_dict() == mat.stalls.to_dict()
        assert res.teleport_epochs == mat.teleport_epochs
        assert res.local_epochs == mat.local_epochs
        assert res.epr_pairs == mat.epr_pairs
        assert res.channel_pairs == mat.channel_pairs
        assert res.ops_executed == mat.ops_executed
        assert res.fault_log.to_dict() == mat.fault_log.to_dict()
        assert [e.to_dict() for e in res.trace.events] == [
            e.to_dict() for e in mat.trace.events
        ]


def test_critical_path_and_release_graph():
    ops = [
        Operation("H", (QUBITS[0],)),
        Operation("CNOT", (QUBITS[0], QUBITS[1])),
        Operation("T", (QUBITS[1],)),
        Operation("H", (QUBITS[2],)),
    ]
    cols = build_columns(ListStream(ops), window=2)
    dag = DependenceDAG(list(ops))
    assert cols.critical_path_length() == dag.critical_path_length()
    assert len(cols) == 4
    got = cols.operation(1)
    assert got.gate == "CNOT"
    assert tuple(str(q) for q in got.qubits) == ("q[0]", "q[1]")
