"""Unit tests for the ``perf`` harness (:mod:`repro.service.perf`)."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import (
    PERF_SCHEMA,
    build_perf_payload,
    compare_perf_payloads,
    perf_grid,
    run_perf,
    validate_perf_payload,
)
from repro.service.perf import STAGE_FLOOR_S, _aggregate

#: The committed perf baseline CI gates against.
BASELINE = Path(__file__).resolve().parents[1] / "BENCH_perf.json"

#: A plausible ``probe_s`` (the probe is about 1 ms of work).
PROBE_S = 0.001


def _outcome(label="BF|rcp", status="ok", compute_s=1.0, spans=None,
             rss=2048):
    return {
        "label": label,
        "status": status,
        "compute_s": compute_s,
        "spans": spans
        if spans is not None
        else {"schedule:rcp": {"calls": 2, "seconds": compute_s}},
        "peak_rss_kb": rss,
    }


def _run(outcomes, wall=1.0):
    return outcomes, wall


class TestPerfGrid:
    def test_grid_is_pinned(self):
        grid = perf_grid()
        # 8 benchmarks x {rcp, lpfs} at Multi-SIMD(4, 4), local 4.
        assert len(grid["benchmarks"]) * len(grid["algorithms"]) == 16
        assert grid["algorithms"] == ["rcp", "lpfs"]
        assert (grid["ks"], grid["ds"], grid["local_memories"]) == (
            [4], [4], ["4"]
        )
        # The committed baseline measured this very grid.
        assert grid == json.loads(BASELINE.read_text())["grid"]


class TestAggregate:
    def test_min_seconds_max_rss_across_repeats(self):
        runs = [
            _run([_outcome(compute_s=2.0, rss=1000)], wall=3.0),
            _run([_outcome(compute_s=1.5, rss=4000)], wall=2.5),
        ]
        agg = _aggregate(runs)
        assert agg["repeats"] == 2
        assert agg["total_compute_s"] == 1.5
        assert agg["wall_s"] == 2.5
        assert agg["peak_rss_kb"] == 4000
        assert agg["stages"]["schedule:rcp"]["seconds"] == 1.5
        assert agg["stages"]["schedule:rcp"]["calls"] == 2
        assert agg["failed_jobs"] == []
        assert agg["per_job"][0]["compute_s"] == 1.5

    def test_failed_jobs_recorded_and_excluded(self):
        runs = [
            _run(
                [
                    _outcome(label="good", compute_s=1.0),
                    _outcome(label="bad", status="error", compute_s=9.0),
                ]
            )
        ]
        agg = _aggregate(runs)
        assert agg["failed_jobs"] == ["bad"]
        assert agg["total_compute_s"] == 1.0


class TestPayload:
    def _fast(self):
        return _aggregate([_run([_outcome(compute_s=1.0)])])

    def test_build_and_validate_round_trip(self):
        payload = build_perf_payload(perf_grid(), 1, self._fast(), PROBE_S)
        assert payload["schema"] == PERF_SCHEMA == "repro.bench-perf/3"
        assert payload["probe_s"] == PROBE_S
        assert "speedup" not in payload and "reference" not in payload
        assert validate_perf_payload(payload) == []
        # JSON round-trip stays valid (what CI reads back from disk).
        assert validate_perf_payload(json.loads(json.dumps(payload))) == []

    def test_validator_flags_corruption(self):
        payload = build_perf_payload(None, 1, self._fast(), PROBE_S)
        for mutate, fragment in [
            (lambda d: d.update(schema="bogus/9"), "schema"),
            # A /2 document has no probe: comparing against it at
            # scale 1 would silently compare two machines.
            (lambda d: d.update(schema="repro.bench-perf/2"), "schema"),
            (lambda d: d.pop("probe_s"), "probe_s"),
            (lambda d: d.update(probe_s=float("nan")), "probe_s"),
            (lambda d: d.update(probe_s=float("inf")), "probe_s"),
            (lambda d: d.update(probe_s=0.0), "probe_s"),
            (lambda d: d.update(probe_s=-PROBE_S), "probe_s"),
            (lambda d: d.update(probe_s="1ms"), "probe_s"),
            (lambda d: d["fast"].pop("stages"), "stages"),
            (
                lambda d: d["fast"]["stages"].update(x={"calls": "one"}),
                "calls",
            ),
            (lambda d: d.update(repeats="two"), "repeats"),
        ]:
            doc = copy.deepcopy(payload)
            mutate(doc)
            problems = validate_perf_payload(doc)
            assert problems, fragment
            assert any(fragment in p for p in problems), (fragment,
                                                          problems)

    def test_validator_rejects_non_object(self):
        assert validate_perf_payload(["not", "a", "dict"])


class TestCompare:
    def _doc(self, stage_s, total_s, probe_s=PROBE_S):
        return {
            "probe_s": probe_s,
            "fast": {
                "stages": {"schedule:rcp": {"calls": 1,
                                            "seconds": stage_s}},
                "total_compute_s": total_s,
            },
        }

    def test_identical_documents_pass(self):
        doc = self._doc(1.0, 1.0)
        assert compare_perf_payloads(doc, doc) == []

    def test_stage_regression_flagged(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(2.0, 1.0)
        problems = compare_perf_payloads(cur, base)
        assert len(problems) == 1
        assert "schedule:rcp" in problems[0]

    def test_total_regression_flagged(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(1.0, 2.0)
        problems = compare_perf_payloads(cur, base)
        assert len(problems) == 1
        assert "total compute" in problems[0]

    def test_tolerance_is_respected(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(1.2, 1.2)
        assert compare_perf_payloads(cur, base, tolerance=0.25) == []
        assert compare_perf_payloads(cur, base, tolerance=0.1)

    def test_tiny_stages_skipped_as_noise(self):
        base = self._doc(STAGE_FLOOR_S / 2, STAGE_FLOOR_S / 2)
        cur = self._doc(STAGE_FLOOR_S * 10, STAGE_FLOOR_S / 2)
        assert compare_perf_payloads(cur, base) == []

    def test_machine_scale_from_probe(self):
        # Current machine is 2x slower (probe time doubled): a 1.9x
        # stage slowdown is within the rescaled budget, a 3x is not.
        base = self._doc(1.0, 1.0, probe_s=PROBE_S)
        ok = self._doc(1.9, 1.9, probe_s=2 * PROBE_S)
        bad = self._doc(3.0, 3.0, probe_s=2 * PROBE_S)
        assert compare_perf_payloads(ok, base) == []
        problems = compare_perf_payloads(bad, base)
        assert len(problems) == 2
        assert "machine scale 2.00" in problems[0]

    def test_stage_missing_from_current_is_not_a_regression(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(1.0, 1.0)
        cur["fast"]["stages"] = {}
        assert compare_perf_payloads(cur, base) == []


class TestRunPerf:
    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_perf(repeats=0)

    def test_rejects_empty_job_list(self):
        with pytest.raises(ValueError, match="at least one job"):
            run_perf(jobs=[], include_scale=False)

    def test_tiny_real_run(self):
        # One real (small) job through the measurement loop, both
        # pipelines plus a tiny in-process scale section, to cover the
        # wiring end to end.
        from repro.service import scale_perf_jobs

        payload = run_perf(
            repeats=1,
            jobs=[("BF", "rcp")],
            scale_jobs=scale_perf_jobs(
                target_gates=1_500, kinds=("adder",)
            ),
            scale_fresh_process=False,
        )
        assert validate_perf_payload(payload) == []
        assert payload["grid"] is None
        assert payload["fast"]["failed_jobs"] == []
        assert 0 < payload["probe_s"] < 1
        assert {"toolflow:plan", "toolflow:schedule", "schedule:rcp"} <= (
            set(payload["fast"]["stages"])
        ), "stage spans missing"
        assert payload["fast"]["per_job"][0]["label"] == (
            "BF rcp k=4 d=4 local=4/materialized"
        )
        rows = payload["scale"]["jobs"]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert payload["streamed_overhead"] is not None

    def test_failing_job_is_reported_not_raised(self):
        payload = run_perf(repeats=1, jobs=[("NOPE", "rcp")],
                           include_scale=False)
        assert payload["fast"]["failed_jobs"] == ["NOPE rcp k=4 d=4 local=4"]
        assert payload["fast"]["per_job"][0]["status"] == "error"
        assert validate_perf_payload(payload) == []

    def test_no_scale_section(self):
        payload = run_perf(repeats=1, jobs=[("BF", "rcp")],
                           include_scale=False)
        assert payload["scale"] is None
        assert payload["streamed_overhead"] is None
        assert validate_perf_payload(payload) == []


class TestPerfCLI:
    def test_bad_repeats_is_usage_error(self, capsys):
        assert main(["perf", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["perf", "--baseline", str(missing)]) == 2
        assert "not readable" in capsys.readouterr().err

    def test_invalid_baseline_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["perf", "--baseline", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_invalid_baseline_document_is_usage_error(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "wrong/0"}))
        assert main(["perf", "--baseline", str(bad)]) == 2
        assert "not a valid perf document" in capsys.readouterr().err

    def test_probe_less_baseline_is_usage_error(self, tmp_path, capsys,
                                                monkeypatch):
        # A /2 document measured the reference pipeline, not the probe:
        # there is no machine scale to compare it at.
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        old = build_perf_payload(None, 1, fast, PROBE_S)
        old.update(schema="repro.bench-perf/2", reference=fast,
                   speedup=1.0)
        del old["probe_s"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        monkeypatch.setattr("repro.service.run_perf", _no_grid)
        assert main(["perf", "--baseline", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not a valid perf document" in err
        assert "probe_s" in err

    @pytest.mark.parametrize("flag", ["--tolerance", "--memory-tolerance"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_bad_tolerance_is_usage_error(self, flag, value, tmp_path,
                                          capsys, monkeypatch):
        # NaN compares false against every budget, so the gate would
        # pass anything; a negative tolerance flags every stage. Both
        # must be refused before the grid runs.
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        baseline = tmp_path / "base.json"
        baseline.write_text(
            json.dumps(build_perf_payload(None, 1, fast, PROBE_S))
        )
        monkeypatch.setattr("repro.service.run_perf", _no_grid)
        argv = ["perf", "--baseline", str(baseline), f"{flag}={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} must be a finite number >= 0, "
            f"got {float(value)}\n"
        )


def _no_grid(*args, **kwargs):
    raise AssertionError("the perf grid ran")


def _scale_row(label, pipeline, mem=1000.0, interp=20000, status="ok"):
    return {
        "label": label,
        "status": status,
        "pipeline": pipeline,
        "kind": "adder",
        "algorithm": "lpfs",
        "target_gates": 1000,
        "total_gates": 1021,
        "elapsed_s": 0.5,
        "schedule_length": 700,
        "interp_rss_kb": interp,
        "peak_rss_kb": 30000,
        "peak_rss_kb_per_mgate": mem,
    }


def _scale_section(rows):
    return {"process_isolated": True, "jobs": rows}


class TestScaleValidator:
    def _payload(self, rows):
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        return build_perf_payload(
            None, 1, fast, PROBE_S, scale=_scale_section(rows)
        )

    def test_valid_scale_section(self):
        rows = [
            _scale_row("scale:adder@1000/streamed[w=8]", "streamed"),
            _scale_row("scale:adder@1000/materialized", "materialized"),
        ]
        payload = self._payload(rows)
        assert payload["schema"] == PERF_SCHEMA
        assert validate_perf_payload(payload) == []

    def test_v2_requires_scale_key(self):
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        payload = build_perf_payload(None, 1, fast, PROBE_S)
        del payload["scale"]
        problems = validate_perf_payload(payload)
        assert any("'scale'" in p for p in problems)

    def test_label_must_embed_pipeline(self):
        rows = [_scale_row("scale:adder@1000/oops", "streamed")]
        problems = validate_perf_payload(self._payload(rows))
        assert any("label must embed" in p for p in problems)

    def test_bad_pipeline_value(self):
        rows = [_scale_row("scale:adder@1000/windowed", "windowed")]
        problems = validate_perf_payload(self._payload(rows))
        assert any("pipeline" in p for p in problems)

    def test_error_rows_need_no_metrics(self):
        rows = [
            {
                "label": "scale:adder@1000/streamed[w=8]",
                "pipeline": "streamed",
                "status": "timeout",
                "error": "exceeded 600s",
            }
        ]
        assert validate_perf_payload(self._payload(rows)) == []


class TestMemoryGate:
    def _doc(self, rows):
        return {
            "probe_s": PROBE_S,
            "fast": {"stages": {}, "total_compute_s": 0.0},
            "scale": _scale_section(rows),
        }

    def test_identical_passes(self):
        doc = self._doc(
            [_scale_row("scale:adder@1000/streamed[w=8]", "streamed")]
        )
        assert compare_perf_payloads(doc, doc) == []

    def test_memory_regression_flagged(self):
        label = "scale:adder@1000/streamed[w=8]"
        base = self._doc([_scale_row(label, "streamed", mem=1000.0)])
        cur = self._doc([_scale_row(label, "streamed", mem=2000.0)])
        problems = compare_perf_payloads(cur, base)
        assert len(problems) == 1
        assert "KiB/Mgate" in problems[0]
        # Within tolerance passes.
        ok = self._doc([_scale_row(label, "streamed", mem=1300.0)])
        assert compare_perf_payloads(ok, base,
                                     memory_tolerance=0.35) == []

    def test_interp_rss_rescales_budget(self):
        # Current machine's fresh interpreter is 2x bigger (e.g. a
        # different allocator): a 1.9x peak growth stays within the
        # rescaled budget, 3x does not.
        label = "scale:adder@1000/streamed[w=8]"
        base = self._doc(
            [_scale_row(label, "streamed", mem=1000.0, interp=20000)]
        )
        ok = self._doc(
            [_scale_row(label, "streamed", mem=1900.0, interp=40000)]
        )
        bad = self._doc(
            [_scale_row(label, "streamed", mem=3000.0, interp=40000)]
        )
        assert compare_perf_payloads(ok, base) == []
        assert len(compare_perf_payloads(bad, base)) == 1

    def test_pipeline_mismatch_refuses_comparison(self):
        label = "scale:adder@1000/streamed[w=8]"
        base_row = _scale_row(label, "streamed")
        cur_row = _scale_row(label, "materialized")
        problems = compare_perf_payloads(
            self._doc([cur_row]), self._doc([base_row])
        )
        assert len(problems) == 1
        assert "refusing to compare" in problems[0]

    def test_streamed_never_gates_against_materialized(self):
        # Different labels (the modes embed in them) simply don't pair:
        # a huge materialized number cannot trip the streamed gate.
        base = self._doc(
            [_scale_row("scale:adder@1000/materialized",
                        "materialized", mem=100.0)]
        )
        cur = self._doc(
            [_scale_row("scale:adder@1000/streamed[w=8]",
                        "streamed", mem=5000.0)]
        )
        assert compare_perf_payloads(cur, base) == []

    def test_error_rows_skipped(self):
        label = "scale:adder@1000/streamed[w=8]"
        base = self._doc([_scale_row(label, "streamed")])
        cur = self._doc(
            [_scale_row(label, "streamed", mem=9999.0,
                        status="error")]
        )
        assert compare_perf_payloads(cur, base) == []
