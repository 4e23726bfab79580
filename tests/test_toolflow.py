"""Integration tests for the end-to-end toolflow."""

import math

import pytest

from repro.arch.machine import MultiSIMD
from repro.toolflow import (
    SchedulerConfig,
    compile_and_schedule,
)


class TestSchedulerConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig("magic")

    def test_defaults_match_paper(self):
        cfg = SchedulerConfig()
        assert cfg.algorithm == "lpfs"
        assert cfg.lpfs_l == 1
        assert cfg.lpfs_simd and cfg.lpfs_refill


class TestEndToEnd:
    def compile(self, prog, **kw):
        kw.setdefault("machine", MultiSIMD(k=2))
        return compile_and_schedule(prog, **kw)

    def test_two_toffoli_pipeline(self, two_toffoli_program):
        result = self.compile(two_toffoli_program)
        assert result.total_gates == 30  # 2 x 15-gate networks
        assert result.critical_path <= result.schedule_length
        assert result.schedule_length < 30  # some parallelism found
        assert result.runtime >= result.schedule_length

    def test_stored_schedule_is_valid(self, two_toffoli_program):
        result = self.compile(two_toffoli_program)
        sched = result.schedules[result.program.entry]
        sched.validate()

    def test_rcp_and_lpfs_both_work(self, two_toffoli_program):
        for alg in ("rcp", "lpfs"):
            result = self.compile(
                two_toffoli_program, scheduler=SchedulerConfig(alg)
            )
            assert result.scheduler.algorithm == alg
            assert result.parallel_speedup >= 1.0

    def test_modular_vs_flattened(self, modular_toffoli_program):
        """Figure 4: flattening must not be slower than blackbox
        scheduling."""
        flat = self.compile(modular_toffoli_program, fth=10 ** 9)
        boxed = self.compile(modular_toffoli_program, fth=0)
        assert flat.schedule_length <= boxed.schedule_length

    def test_speedups_bounded_by_theory(self, two_toffoli_program):
        result = self.compile(two_toffoli_program)
        assert result.parallel_speedup <= result.cp_speedup + 1e-9
        # Comm-aware speedup can't beat the zero-communication bound.
        assert result.comm_aware_speedup <= 5 * result.cp_speedup + 1e-9

    def test_local_memory_never_hurts(self, two_toffoli_program):
        base = self.compile(two_toffoli_program)
        with_mem = self.compile(
            two_toffoli_program,
            machine=MultiSIMD(k=2, local_memory=math.inf),
        )
        assert with_mem.runtime <= base.runtime

    def test_naive_runtime_property(self, two_toffoli_program):
        result = self.compile(two_toffoli_program)
        assert result.naive_runtime == 5 * result.total_gates
        assert result.runtime <= result.naive_runtime

    def test_decompose_disabled_keeps_gates(self, two_toffoli_program):
        result = self.compile(two_toffoli_program, decompose=False)
        assert result.total_gates == 2  # raw Toffolis

    def test_wider_machine_never_longer(self, two_toffoli_program):
        lengths = []
        for k in (1, 2, 4):
            result = self.compile(
                two_toffoli_program, machine=MultiSIMD(k=k)
            )
            lengths.append(result.schedule_length)
        assert lengths[0] >= lengths[1] >= lengths[2]

    def test_entry_profile_has_all_widths(self, two_toffoli_program):
        result = self.compile(
            two_toffoli_program, machine=MultiSIMD(k=4)
        )
        assert set(result.entry_profile.length) == {1, 2, 3, 4}

    def test_large_k_uses_sparse_widths(self, two_toffoli_program):
        result = self.compile(
            two_toffoli_program, machine=MultiSIMD(k=16)
        )
        assert set(result.entry_profile.length) == {1, 2, 4, 8, 16}

    def test_flattened_percent_reported(self, modular_toffoli_program):
        result = self.compile(modular_toffoli_program, fth=10 ** 9)
        assert result.flattened_percent == 100.0


class TestHierarchicalComposition:
    def test_iterated_calls_scale_linearly(self):
        from repro.core import ProgramBuilder

        def build(iters):
            pb = ProgramBuilder()
            sub = pb.module("sub")
            p = sub.param_register("p", 1)
            sub.t(p[0]).h(p[0]).t(p[0])
            main = pb.module("main")
            q = main.register("q", 1)
            main.call("sub", [q[0]], iterations=iters)
            return pb.build("main")

        r1 = compile_and_schedule(
            build(10), MultiSIMD(k=2), decompose=False, fth=0
        )
        r2 = compile_and_schedule(
            build(1000), MultiSIMD(k=2), decompose=False, fth=0
        )
        assert r2.total_gates == 100 * r1.total_gates
        # Runtime scales with iterations (hierarchical, not unrolled).
        assert r2.schedule_length == pytest.approx(
            100 * r1.schedule_length, rel=0.01
        )

    def test_paper_scale_program_compiles_fast(self):
        """A 10^9-gate program must compile via hierarchy without
        unrolling."""
        from repro.core import ProgramBuilder

        pb = ProgramBuilder()
        inner = pb.module("inner")
        p = inner.param_register("p", 1)
        for _ in range(10):
            inner.t(p[0])
        mid = pb.module("mid")
        mp = mid.param_register("p", 1)
        mid.call("inner", [mp[0]], iterations=10 ** 4)
        main = pb.module("main")
        q = main.register("q", 1)
        main.call("mid", [q[0]], iterations=10 ** 4)
        result = compile_and_schedule(
            pb.build("main"), MultiSIMD(k=2), decompose=False, fth=100
        )
        assert result.total_gates == 10 ** 9
        assert result.runtime > 10 ** 9


class TestStrictMode:
    def _machine(self):
        return MultiSIMD(k=2)

    def test_clean_program_compiles_with_diagnostics(
        self, two_toffoli_program
    ):
        result = compile_and_schedule(
            two_toffoli_program, self._machine(), strict=True
        )
        assert isinstance(result.diagnostics, tuple)
        assert not any(
            d.severity.name == "ERROR" for d in result.diagnostics
        )

    def test_default_mode_collects_nothing(self, two_toffoli_program):
        result = compile_and_schedule(
            two_toffoli_program, self._machine()
        )
        assert result.diagnostics == ()

    def test_input_stage_errors_raise(self):
        from repro.analysis import AnalysisError
        from repro.core import ProgramBuilder

        pb = ProgramBuilder()
        m = pb.module("main")
        q = m.register("q", 1)
        m.prep_z(q[0]).meas_z(q[0]).h(q[0])  # use after measure
        with pytest.raises(AnalysisError) as ei:
            compile_and_schedule(
                pb.build("main"), self._machine(), strict=True
            )
        exc = ei.value
        assert exc.stage == "input"
        assert "QL006" in {d.code for d in exc.diagnostics}

    def test_diagnostics_are_canonically_sorted(
        self, two_toffoli_program
    ):
        from repro.analysis import DiagnosticSet

        result = compile_and_schedule(
            two_toffoli_program, self._machine(), strict=True
        )
        canonical = DiagnosticSet(result.diagnostics).sorted()
        assert list(result.diagnostics) == canonical

    def test_kept_schedules_are_audited(self, two_toffoli_program):
        from repro.analysis import audit_schedule

        result = compile_and_schedule(
            two_toffoli_program, self._machine(), strict=True
        )
        for name, sched in result.schedules.items():
            assert not audit_schedule(
                sched, result.machine, module=name
            ).has_errors

    def test_flattened_stage_sees_no_orphaned_callees(self):
        """The front end builds its program from the reachable modules,
        so the post-flatten analysis reports no QL005 for the callees
        flattening orphans, and keeps the findings on inlined locals."""
        from repro.benchmarks import BENCHMARKS

        spec = BENCHMARKS["BF"]
        result = compile_and_schedule(
            spec.build(), MultiSIMD(k=4, d=4), fth=spec.fth, strict=True
        )
        program = result.program
        assert set(program.modules) == program.reachable()
        assert "QL005" not in {d.code for d in result.diagnostics}
        walk_step = [
            d
            for d in result.diagnostics
            if d.code == "QL003" and d.module == "walk_step"
        ]
        assert walk_step
        for d in walk_step:
            assert "formula_oracle@0$evaluate_formula@" in d.message


class TestOptimize:
    def test_cancellation_runs_before_decomposition(self):
        """The peephole pass cancels a callee's H/H pair before the
        Toffoli in the caller is decomposed (whose network keeps its
        own H gates), and the flattened entry ends in the callee's T."""
        from repro.core import ProgramBuilder
        from repro.core.operation import Operation

        pb = ProgramBuilder()
        sub = pb.module("sub")
        p = sub.param_register("p", 1)
        sub.h(p[0]).h(p[0]).t(p[0])
        main = pb.module("main")
        q = main.register("q", 3)
        main.toffoli(q[0], q[1], q[2])
        main.call("sub", [q[0]])
        prog = pb.build("main")
        machine = MultiSIMD(k=2)
        plain = compile_and_schedule(prog, machine, fth=10 ** 6)
        result = compile_and_schedule(
            prog, machine, fth=10 ** 6, optimize=True
        )
        entry = result.program.entry_module
        assert entry.is_leaf  # fully flattened
        assert "T" in {op.gate for op in entry.operations()}
        assert entry.body[-1] == Operation("T", (q[0],))
        assert result.total_gates == len(entry.body) == plain.total_gates - 2
