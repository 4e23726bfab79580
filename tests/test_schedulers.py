"""Tests for the fine-grained schedulers: sequential, RCP, LPFS.

Includes property-based checks that both list schedulers always produce
valid Multi-SIMD schedules on random DAGs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.opstream import ListStream
from repro.core.qubits import Qubit
from repro.sched.lpfs import schedule_lpfs
from repro.sched.rcp import RCPWeights, schedule_rcp
from repro.sched.sequential import schedule_sequential
from repro.sched.stream import build_columns, schedule_columns

Q = [Qubit("q", i) for i in range(12)]


def chain_dag(n=10):
    return DependenceDAG([Operation("T", (Q[0],)) for _ in range(n)])


def parallel_dag(width=8):
    return DependenceDAG([Operation("H", (Q[i],)) for i in range(width)])


def mixed_dag():
    """Two toffoli-decomposition-like interleaved chains + stragglers."""
    ops = []
    for i in range(6):
        ops.append(Operation("T" if i % 2 else "H", (Q[0],)))
        ops.append(Operation("CNOT", (Q[1], Q[2])))
    ops += [Operation("X", (Q[3],)), Operation("X", (Q[4],))]
    return DependenceDAG(ops)


class TestSequential:
    def test_one_op_per_timestep(self):
        dag = chain_dag(5)
        sched = schedule_sequential(dag)
        sched.validate()
        assert sched.length == 5
        assert sched.max_width == 1

    def test_empty_dag(self):
        sched = schedule_sequential(DependenceDAG([]))
        assert sched.length == 0


class TestRCP:
    def test_valid_on_chain(self):
        sched = schedule_rcp(chain_dag(10), k=4)
        sched.validate()
        assert sched.length == 10  # serial chain can't be compressed

    def test_simd_batches_same_type(self):
        sched = schedule_rcp(parallel_dag(8), k=2)
        sched.validate()
        # All 8 H ops are independent and same-type: one timestep.
        assert sched.length == 1
        assert sum(len(nodes) for _, nodes in sched.regions_at(0)) == 8

    def test_d_cap_respected(self):
        sched = schedule_rcp(parallel_dag(8), k=1, d=3)
        sched.validate()
        assert sched.length == 3  # ceil(8/3)

    def test_mixed_types_use_multiple_regions(self):
        ops = [Operation("H", (Q[i],)) for i in range(4)]
        ops += [Operation("T", (Q[i + 4],)) for i in range(4)]
        sched = schedule_rcp(DependenceDAG(ops), k=2)
        sched.validate()
        assert sched.length == 1
        assert sched.max_width == 2

    def test_k1_serializes_type_groups(self):
        ops = [Operation("H", (Q[0],)), Operation("T", (Q[1],))]
        sched = schedule_rcp(DependenceDAG(ops), k=1)
        sched.validate()
        assert sched.length == 2

    def test_locality_weight_prefers_resident_region(self):
        # CNOT chain alternating qubits: with w_dist high, ops should
        # stay in one region (fewer region switches).
        ops = [
            Operation("CNOT", (Q[0], Q[1])),
            Operation("CNOT", (Q[1], Q[2])),
            Operation("CNOT", (Q[2], Q[0])),
        ]
        sched = schedule_rcp(
            DependenceDAG(ops), k=4,
            weights=RCPWeights(w_op=0.0, w_dist=10.0, w_slack=0.0),
        )
        sched.validate()
        placement = sched.placement()
        regions = {placement[i][1] for i in range(3)}
        assert len(regions) == 1

    def test_schedule_algorithm_label(self):
        assert schedule_rcp(chain_dag(2), k=1).algorithm == "rcp"


class TestLPFS:
    def test_valid_on_chain(self):
        sched = schedule_lpfs(chain_dag(10), k=2)
        sched.validate()
        assert sched.length == 10

    def test_parallel_ops_fill_regions(self):
        sched = schedule_lpfs(parallel_dag(8), k=2)
        sched.validate()
        assert sched.length <= 2

    def test_l_bounds_checked(self):
        with pytest.raises(ValueError):
            schedule_lpfs(chain_dag(3), k=2, l=3)
        with pytest.raises(ValueError):
            schedule_lpfs(chain_dag(3), k=2, l=0)

    def test_longest_path_pinned_to_one_region(self):
        """The critical chain must execute entirely in region 0."""
        ops = [Operation("T", (Q[0],)) for _ in range(6)]
        ops.append(Operation("H", (Q[1],)))
        sched = schedule_lpfs(DependenceDAG(ops), k=2, simd=False)
        sched.validate()
        placement = sched.placement()
        chain_regions = {placement[i][1] for i in range(6)}
        assert chain_regions == {0}

    def test_simd_off_no_fill_in_path_region(self):
        ops = [Operation("T", (Q[0],)) for _ in range(4)]
        ops += [Operation("T", (Q[1],)) for _ in range(2)]
        sched = schedule_lpfs(DependenceDAG(ops), k=2, simd=False)
        sched.validate()
        # Free T ops must be in region 1, not merged into region 0.
        placement = sched.placement()
        assert {placement[i][1] for i in range(4)} == {0}
        assert {placement[i][1] for i in (4, 5)} == {1}

    def test_simd_on_merges_same_type(self):
        ops = [Operation("T", (Q[0],)) for _ in range(4)]
        ops += [Operation("T", (Q[1],)) for _ in range(2)]
        sched = schedule_lpfs(DependenceDAG(ops), k=1, simd=True)
        sched.validate()
        # With one region, SIMD fill packs the free T's alongside the
        # path T's: length 4, not 6.
        assert sched.length == 4

    def test_refill_reseeds_after_path_completes(self):
        # Path 1 short; path 2 appears after refill.
        ops = [Operation("T", (Q[0],)) for _ in range(2)]
        ops += [Operation("H", (Q[1],)) for _ in range(4)]
        sched = schedule_lpfs(
            DependenceDAG(ops), k=1, simd=False, refill=True
        )
        sched.validate()
        assert sched.length == 6

    def test_k_equals_l_simd_off_fallback_completes(self):
        # Free ops with no region to run in: progress guard must
        # complete the schedule anyway.
        ops = [Operation("T", (Q[0],)) for _ in range(3)]
        ops += [Operation("H", (Q[1],))]
        sched = schedule_lpfs(
            DependenceDAG(ops), k=1, l=1, simd=False, refill=False
        )
        sched.validate()

    def test_d_cap(self):
        sched = schedule_lpfs(parallel_dag(9), k=1, d=4)
        sched.validate()
        assert all(
            len(nodes) <= 4
            for _, regions in sched.iter_timesteps()
            for _, nodes in regions
        )

    def test_two_paths(self):
        ops = [Operation("T", (Q[0],)) for _ in range(5)]
        ops += [Operation("H", (Q[1],)) for _ in range(5)]
        sched = schedule_lpfs(DependenceDAG(ops), k=2, l=2, simd=False)
        sched.validate()
        assert sched.length == 5

    def test_label(self):
        assert schedule_lpfs(chain_dag(2), k=1).algorithm == "lpfs"


# --- degenerate machine shapes --------------------------------------------

#: Each scheduler entry point, as a call on a DAG's ops and a shape.
ENTRY_POINTS = {
    "schedule_rcp": lambda ops, k, d: schedule_rcp(DependenceDAG(ops), k, d),
    "schedule_lpfs": lambda ops, k, d: schedule_lpfs(DependenceDAG(ops), k, d),
    "schedule_sequential": lambda ops, k, d: schedule_sequential(
        DependenceDAG(ops), k, d
    ),
    **{
        f"schedule_columns-{alg}": (
            lambda ops, k, d, alg=alg: schedule_columns(
                build_columns(ListStream(ops)), alg, k, d
            )
        )
        for alg in ("rcp", "lpfs", "sequential")
    },
}


@pytest.mark.parametrize(
    "k, d, message",
    [
        (0, None, "k must be >= 1, got 0"),
        (2, 0, "d must be >= 1 or None, got 0"),
        (65536, None, "k must be < 65536, got 65536"),
    ],
    ids=["k0", "d0", "k65536"],
)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_degenerate_shape_rejected(entry, k, d, message, monkeypatch):
    """A zero width is refused with MultiSIMD's wording before any
    kernel runs: no kernel can place an op on such a machine."""

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for alg in ("rcp", "lpfs", "sequential"):
        kernel = f"{alg}_timesteps"
        monkeypatch.setattr(f"repro.sched.{alg}.{kernel}", no_kernel)
        monkeypatch.setattr(f"repro.sched.stream.{kernel}", no_kernel)
    ops = [Operation(g, (Q[i],)) for i, g in enumerate(("H", "T", "H"))]
    with pytest.raises(ValueError, match=f"^{message}$"):
        ENTRY_POINTS[entry](ops, k, d)


# --- property-based: random DAGs ------------------------------------------

@st.composite
def random_dag(draw):
    n_qubits = draw(st.integers(2, 6))
    qs = [Qubit("q", i) for i in range(n_qubits)]
    n_ops = draw(st.integers(1, 40))
    gates1 = ["H", "T", "X", "S"]
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(
                Operation(draw(st.sampled_from(gates1)),
                          (draw(st.sampled_from(qs)),))
            )
        else:
            pair = draw(
                st.lists(st.sampled_from(qs), min_size=2, max_size=2,
                         unique=True)
            )
            ops.append(Operation("CNOT", tuple(pair)))
    return DependenceDAG(ops)


class TestSchedulerProperties:
    @given(random_dag(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_rcp_always_valid(self, dag, k):
        sched = schedule_rcp(dag, k=k)
        sched.validate()
        assert sched.length >= dag.critical_path_length()

    @given(random_dag(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_lpfs_always_valid(self, dag, k):
        sched = schedule_lpfs(dag, k=k)
        sched.validate()
        assert sched.length >= dag.critical_path_length()

    @given(random_dag(), st.integers(1, 3), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_lpfs_option_combinations_valid(self, dag, k, simd, refill):
        sched = schedule_lpfs(dag, k=k, simd=simd, refill=refill)
        sched.validate()

    @given(random_dag(), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_d_cap_property(self, dag, k, d):
        for fn in (schedule_rcp, schedule_lpfs):
            sched = fn(dag, k=k, d=d)
            sched.validate()

    @given(random_dag())
    @settings(max_examples=30, deadline=None)
    def test_k1_no_worse_than_sequential(self, dag):
        seq = schedule_sequential(dag)
        for fn in (schedule_rcp, schedule_lpfs):
            assert fn(dag, k=1).length <= seq.length


class TestRCPTieBreak:
    """The `_max_weight_simd_optype` tie-break is total: equal-weight
    candidates resolve by (gate name, region) lexicographically, so the
    choice never depends on ready-list or dict iteration order."""

    def _two_chain_dag(self):
        # Two independent equal-length chains with different mnemonics:
        # H and T tie in longest-path weight at every step.
        ops = []
        for _ in range(3):
            ops.append(Operation("T", (Q[0],)))
            ops.append(Operation("H", (Q[1],)))
        return DependenceDAG(ops)

    def test_equal_weight_tie_goes_to_smallest_gate_name(self):
        dag = self._two_chain_dag()
        sched = schedule_rcp(dag, k=1)
        sched.validate()
        first = dict(sched.regions_at(0)).get(0)
        assert first, "first region empty"
        assert dag.statements[first[0]].gate == "H"

    def test_tie_break_is_stable_across_pipelines(self):
        from repro.sched.report import schedule_to_dict
        from tests.oracle.reference_sched import schedule_rcp_reference

        for k in (1, 2, 3):
            fast = schedule_rcp(self._two_chain_dag(), k=k)
            ref = schedule_rcp_reference(self._two_chain_dag(), k=k)
            assert schedule_to_dict(fast) == schedule_to_dict(ref)

    def test_tie_break_independent_of_statement_order(self):
        # Swapping the two chains' interleaving must not change which
        # gate type wins the tie (it changes node numbering, so compare
        # the gate sequence per timestep, not node ids).
        def gate_seq(ops):
            dag = DependenceDAG(ops)
            sched = schedule_rcp(dag, k=1)
            return [
                dag.statements[nodes[0]].gate
                for _, regions in sched.iter_timesteps()
                for r, nodes in regions
                if r == 0
            ]

        a = []
        b = []
        for _ in range(3):
            a += [Operation("T", (Q[0],)), Operation("H", (Q[1],))]
            b += [Operation("H", (Q[1],)), Operation("T", (Q[0],))]
        assert gate_seq(a) == gate_seq(b)
