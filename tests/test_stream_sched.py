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

It also checks that the two ingest sources agree: a ``leaf_stream``
spliced from int-coded per-module templates gives the columns of its
own boxed ops interned one by one, over the registry, over random
hierarchical programs and over frames that alias two qubits.
"""

from __future__ import annotations

import itertools
import math
from typing import List

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS, benchmark_names
from repro.benchmarks.scale import SCALE_KINDS, build_scale
from repro.core.dag import DependenceDAG
from repro.core.gates import GATES
from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation
from repro.core.opstream import ListStream
from repro.core.qubits import Qubit
from repro.engine import EngineConfig, FaultConfig, run_schedule
from repro.engine.executor import run_schedule_stream
from repro.passes.decompose import DecomposeConfig, decompose_operation
from repro.passes.resource import total_gate_counts
from repro.passes.stream import LeafStream, decomposed_gate_counts, leaf_stream
from repro.sched import derive_movement
from repro.sched.comm import CommStats
from repro.sched.report import _comm_to_dict
from repro.sched.stream import (
    StreamColumns,
    build_columns,
    derive_movement_stream,
    engine_epochs,
    iter_schedule_epochs,
    schedule_columns,
)
from repro import toolflow
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


def flat(sched) -> tuple:
    """A schedule's body: ``(ts_off, flat_regions, flat_nodes)``."""
    return (
        list(sched.ts_off),
        list(sched.flat_regions),
        list(sched.flat_nodes),
    )


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
        assert ssched.dag is None, name
        assert ssched.algorithm == sched.algorithm
        assert (ssched.k, ssched.d) == (sched.k, sched.d), name
        assert ssched.max_width == sched.max_width, name
        assert flat(ssched) == flat(sched), name


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
    CommStats) as the unbounded one, and an export sink changes
    nothing: it sees every epoch once, in order, with
    ``ssched.regions_at(t)``."""
    machine = MultiSIMD(k=k, d=d)
    fingerprints = []
    comms = []
    seen = []

    def record(t, moves, regions):
        seen.append((t, moves, regions))

    for w, sink in ((window, None), (None, None), (None, record)):
        cols = build_columns(ListStream(ops), window=w)
        ssched = schedule_columns(cols, algorithm, k, d)
        stats = derive_movement_stream(cols, ssched, machine, sink=sink)
        fingerprints.append(schedule_fingerprint(ssched))
        comms.append(_comm_to_dict(stats))
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
    assert comms[0] == comms[1] == comms[2]
    assert [(t, regions) for t, _, regions in seen] == [
        (t, ssched.regions_at(t)) for t in range(ssched.length)
    ]
    assert [moves for _, moves, _ in seen] == [
        moves
        for _, moves, _ in iter_schedule_epochs(
            cols, ssched, machine, CommStats()
        )
    ]


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

    assert flat(ssched) == flat(mat_sched)
    assert epochs == list(enumerate(mat_sched.moves))
    assert _comm_to_dict(stats) == _comm_to_dict(mat_comm)


@settings(max_examples=100, deadline=None)
@given(ops=leaf_bodies(max_ops=40), window=small_windows)
def test_columns_equal_dag_columns(ops, window):
    """The columns' interned operands and CSR successor table are the
    DAG's int-coded view, and in-degrees count its distinct preds."""
    cols = build_columns(ListStream(ops), window=window)
    dag = DependenceDAG(list(ops))
    view = dag.columns()
    for name in ("gate_names", "gate_ids", "qubits", "op_q", "op_off",
                 "succ_flat", "succ_off"):
        assert list(getattr(cols, name)) == list(getattr(view, name)), name
    assert list(cols.indeg_base) == dag.indegrees()


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


def _leaf_columns_checked(monkeypatch):
    """Patch the toolflow's ``build_columns`` to record, for each leaf it
    ingests, ``(critical_path_length(), max(depths()))`` before the
    toolflow releases the graph."""
    seen = []

    def recording(*args, **kwargs):
        cols = build_columns(*args, **kwargs)
        seen.append((cols.critical_path_length(), max(cols.depths(), default=0)))
        return cols

    monkeypatch.setattr(toolflow, "build_columns", recording)
    return seen


@pytest.mark.parametrize("key", REGISTRY)
def test_critical_path_is_deepest_depth_registry(key, monkeypatch):
    """Every streamed leaf of a registry program: the critical path read
    from heights equals the deepest depth."""
    seen = _leaf_columns_checked(monkeypatch)
    spec = BENCHMARKS[key]
    compile_and_schedule_streamed(
        spec.build(), MultiSIMD(4, 4), SchedulerConfig("lpfs"), fth=spec.fth,
        widths="entry", keep_schedules=False,
    )
    assert seen
    for got, want in seen:
        assert got == want, key


@pytest.mark.parametrize("kind", SCALE_KINDS)
def test_critical_path_is_deepest_depth_scale(kind):
    program, _ = build_scale(kind, 20_000)
    cols = build_columns(leaf_stream(program, program.entry))
    assert cols.critical_path_length() == max(cols.depths())
    assert build_columns(ListStream([])).critical_path_length() == 0


def test_lpfs_streamed_compile_runs_no_depths_pass(monkeypatch):
    """LPFS reads heights only, and the leaf's critical path comes from
    the same heights, so a streamed LPFS compile never runs the forward
    depths pass."""
    calls = [0]
    depths = StreamColumns.depths

    def counting(self):
        calls[0] += 1
        return depths(self)

    monkeypatch.setattr(StreamColumns, "depths", counting)
    program, _ = build_scale("adder", 5_000)
    result = compile_and_schedule_streamed(
        program, MultiSIMD(4, 4), SchedulerConfig("lpfs"), fth=10**9,
    )
    assert result.critical_path > 1
    assert calls[0] == 0


# ---------------------------------------------------------------------------
# Ingest sources: a leaf_stream is spliced from int-coded templates, any
# other stream is interned op by op. Both must give the same columns, or
# the same error.
# ---------------------------------------------------------------------------

COLUMN_FIELDS = (
    "n",
    "gate_names",
    "gate_ids",
    "qubits",
    "op_q",
    "op_off",
    "angles",
    "succ_flat",
    "succ_off",
    "indeg_base",
)


def _ingest(program, name, decompose, boxed, config=None):
    stream = leaf_stream(
        program, name, decompose=decompose, decompose_config=config
    )
    try:
        cols = build_columns(ListStream(list(stream)) if boxed else stream)
    except ValueError as exc:
        return type(exc), str(exc)
    return {f: getattr(cols, f) for f in COLUMN_FIELDS}


def assert_same_ingest(program, name, decompose, config=None):
    """Template ingest equals boxed ingest, field for field."""
    spliced = _ingest(program, name, decompose, False, config)
    boxed = _ingest(program, name, decompose, True, config)
    assert spliced == boxed, (name, decompose)
    return spliced


@pytest.mark.parametrize("decompose", [True, False])
@pytest.mark.parametrize("key", REGISTRY)
def test_template_ingest_matches_boxed_registry(key, decompose):
    """Every reachable module of every registry benchmark up to 5x10^4
    gates, as a leaf."""
    prog = BENCHMARKS[key].build()
    totals = (
        decomposed_gate_counts(prog) if decompose
        else total_gate_counts(prog)
    )
    names = [n for n in sorted(prog.reachable()) if totals[n] <= 50_000]
    assert names
    for name in names:
        stream = leaf_stream(prog, name, decompose=decompose)
        assert stream.int_coded() is not None, name
        assert_same_ingest(prog, name, decompose)


ANGLES = st.one_of(
    st.integers(min_value=-8, max_value=8).map(lambda m: m * math.pi / 4),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@st.composite
def hierarchical_programs(draw) -> Program:
    """Modules ``m0..m{depth-1}`` and ``main``, each calling lower ones
    (so calls nest 2-3 deep), with 1-4 iterations, callee-local
    registers, and rotations at pi/4-multiple and generic angles."""
    depth = draw(st.integers(min_value=2, max_value=3))
    modules: List[Module] = []
    for level in range(depth + 1):
        entry = level == depth
        name = "main" if entry else f"m{level}"
        params = () if entry else tuple(
            Qubit(f"p{level}", i)
            for i in range(draw(st.integers(min_value=1, max_value=3)))
        )
        width = draw(st.integers(min_value=3 - min(len(params), 2),
                                 max_value=3))
        pool = list(params) + [Qubit("t", i) for i in range(width)]
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            if modules and draw(st.booleans()):
                callee = draw(st.sampled_from(modules))
                args = draw(st.permutations(pool))[: len(callee.params)]
                iterations = draw(st.integers(min_value=1, max_value=4))
                body.append(CallSite(callee.name, tuple(args), iterations))
                continue
            gate = draw(st.sampled_from(
                ["H", "T", "X", "Rz", "CNOT", "CZ", "CRz", "Toffoli"]
            ))
            qs = draw(st.permutations(pool))[: GATES[gate].arity]
            angle = draw(ANGLES) if GATES[gate].takes_angle else None
            body.append(Operation(gate, tuple(qs), angle))
        modules.append(Module(name, params, body))
    return Program(modules, "main")


@settings(max_examples=100, deadline=None)
@given(program=hierarchical_programs(), decompose=st.booleans())
def test_template_ingest_matches_boxed_hierarchical(program, decompose):
    # A coarse rotation synthesizer keeps generic angles at 10 gates.
    config = DecomposeConfig(epsilon=0.25)
    totals = (
        decomposed_gate_counts(program, config) if decompose
        else total_gate_counts(program)
    )
    assume(totals["main"] <= 5_000)
    stream = leaf_stream(
        program, "main", decompose=decompose, decompose_config=config
    )
    assert stream.int_coded() is not None
    cols = assert_same_ingest(program, "main", decompose, config)
    assert cols["n"] == totals["main"]


def _aliasing_program(body):
    """``f(p)`` with local ``t`` and body ``body(p[0], t[0])``, called on
    a caller qubit literally named ``f@0$t[0]``: the frame maps both
    ``p[0]`` and ``t[0]`` onto it."""
    p, t = Qubit("p", 0), Qubit("t", 0)
    f = Module("f", (p,), body(p, t))
    main = Module("main", (), [CallSite("f", (Qubit("f@0$t", 0),))])
    return Program([f, main], "main")


@pytest.mark.parametrize("decompose", [True, False])
def test_aliasing_frame_without_repeated_operand_splices(decompose):
    prog = _aliasing_program(
        lambda p, t: [Operation("H", (p,)), Operation("X", (t,))]
    )
    assert leaf_stream(prog, "main", decompose=decompose).int_coded()
    cols = assert_same_ingest(prog, "main", decompose)
    assert cols["n"] == 2
    assert cols["qubits"] == [Qubit("f@0$t", 0)]
    assert list(cols["succ_flat"]) == [1]


@pytest.mark.parametrize("decompose", [True, False])
def test_aliasing_frame_repeating_an_operand_raises(decompose):
    prog = _aliasing_program(
        lambda p, t: [Operation("H", (p,)), Operation("CNOT", (p, t))]
    )
    assert assert_same_ingest(prog, "main", decompose) == (
        ValueError,
        "CNOT operands must be distinct, got (f@0$t[0], f@0$t[0])",
    )


@pytest.mark.parametrize("decompose", [True, False])
def test_aliasing_through_nested_frames_raises(decompose):
    # main -> g@0 -> f@1: f's local t and its formal (bound through g's
    # formal to main's qubit named g@0$f@1$t[0]) meet only in main.
    p, a, t, u = Qubit("p", 0), Qubit("a", 0), Qubit("t", 0), Qubit("u", 0)
    f = Module("f", (p,), [Operation("Toffoli", (p, u, t))])
    g = Module("g", (a,), [Operation("H", (a,)), CallSite("f", (a,))])
    main = Module("main", (), [CallSite("g", (Qubit("g@0$f@1$t", 0),))])
    prog = Program([f, g, main], "main")
    assert assert_same_ingest(prog, "main", decompose) == (
        ValueError,
        "Toffoli operands must be distinct, got "
        "(g@0$f@1$t[0], g@0$f@1$u[0], g@0$f@1$t[0])",
    )


def test_every_decomposition_pairs_each_operand_pair():
    """A template checks repeated operands after decomposition; that
    equals the boxed check before it because every rule puts each pair
    of its gate's operands together in some output op."""
    synth = DecomposeConfig().synthesizer()
    for gate, spec in GATES.items():
        qs = tuple(Qubit("q", i) for i in range(spec.arity))
        op = Operation(gate, qs, 0.3 if spec.takes_angle else None)
        out = decompose_operation(op, synth)
        for pair in itertools.combinations(qs, 2):
            assert any(set(pair) <= set(o.qubits) for o in out), (gate, pair)


@pytest.mark.parametrize("kind", SCALE_KINDS)
def test_template_ingest_builds_no_operation_per_gate(kind, monkeypatch):
    """Ingesting a scale leaf constructs Operations per distinct source
    op (its decomposition), not per gate: the count is the same at
    10^4 and 10^5 gates."""
    built = [0]
    post_init = Operation.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Operation, "__post_init__", counting)
    counts = []
    for gates in (10_000, 100_000):
        program, total = build_scale(kind, gates)
        before = built[0]
        cols = build_columns(leaf_stream(program, program.entry))
        counts.append(built[0] - before)
        assert cols.n == total
    assert counts[0] == counts[1], counts


def test_boxed_stream_skips_calls_that_expand_to_nothing(monkeypatch):
    """An iterated call to a module that decomposes to no op (a lone
    ``Rz(q, 0)``) costs the boxed stream nothing per iteration: it
    builds as many Operations at 10^3 iterations as at 10^5, and the
    leaf still ingests as the template path does."""
    built = [0]
    post_init = Operation.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Operation, "__post_init__", counting)
    q, p = Qubit("q", 0), Qubit("p", 0)
    counts = []
    for iterations in (1_000, 100_000):
        prog = Program(
            [
                Module("z", (p,), [Operation("Rz", (p,), 0.0)]),
                Module("main", (), [
                    Operation("H", (q,)),
                    CallSite("z", (q,), iterations),
                ]),
            ],
            "main",
        )
        before = built[0]
        ops = list(leaf_stream(prog, "main"))
        counts.append(built[0] - before)
        assert ops == [Operation("H", (q,))]
    assert counts[0] == counts[1], counts
    assert assert_same_ingest(prog, "main", True)["n"] == 1


def test_iterated_call_past_op_limit_overflows_at_once():
    program, total = build_scale("adder", 2**31)
    assert total >= 2**31 - 1
    stream = leaf_stream(program, program.entry)
    # A boxed ingest would run for hours before overflowing.
    assert isinstance(stream, LeafStream)
    with pytest.raises(OverflowError, match=r"2\^31-1 operations"):
        build_columns(stream)
