"""Tests for the span-timer instrumentation layer."""

import time

from repro.core.dag import DependenceDAG
from repro.instrument import (
    SpanRecorder,
    record_spans,
    span,
    spanned,
)
from repro.sched.lpfs import schedule_lpfs


class TestSpanPrimitives:
    def test_noop_when_no_recorder_active(self):
        # Must not raise and must not record anywhere.
        with span("anything"):
            pass

    def test_records_name_calls_and_seconds(self):
        with record_spans() as rec:
            with span("work"):
                time.sleep(0.002)
            with span("work"):
                pass
        stats = rec.to_dict()
        assert set(stats) == {"work"}
        assert stats["work"]["calls"] == 2
        assert stats["work"]["seconds"] >= 0.002

    def test_nested_spans_record_independently(self):
        with record_spans() as rec:
            with span("outer"):
                with span("inner"):
                    pass
        assert set(rec.to_dict()) == {"outer", "inner"}

    def test_exception_still_records(self):
        with record_spans() as rec:
            try:
                with span("boom"):
                    raise RuntimeError("x")
            except RuntimeError:
                pass
        assert rec.to_dict()["boom"]["calls"] == 1

    def test_spanned_decorator(self):
        @spanned("decorated")
        def f(x):
            return x + 1

        with record_spans() as rec:
            assert f(1) == 2
        assert rec.to_dict()["decorated"]["calls"] == 1

    def test_total_prefix(self):
        rec = SpanRecorder()
        rec.add("pass:a", 1.0)
        rec.add("pass:b", 2.0)
        rec.add("schedule:lpfs", 4.0)
        assert rec.total("pass:") == 3.0
        assert rec.total() == 7.0


class TestToolflowSpans:
    def test_scheduler_emits_span(self, two_toffoli_program):
        mod = two_toffoli_program.module("main")
        dag = DependenceDAG(list(mod.body))
        with record_spans() as rec:
            schedule_lpfs(dag, k=2)
        assert rec.to_dict()["schedule:lpfs"]["calls"] == 1

    def test_compile_emits_stage_spans(self, two_toffoli_program):
        from repro.arch.machine import MultiSIMD
        from repro.toolflow import compile_and_schedule

        with record_spans() as rec:
            compile_and_schedule(two_toffoli_program, MultiSIMD(k=2))
        names = set(rec.to_dict())
        assert "pass:decompose" in names
        assert "pass:flatten" in names
        assert "toolflow:schedule" in names
        assert "toolflow:estimate" in names
        assert "comm:derive_movement" in names
        assert "schedule:lpfs" in names

