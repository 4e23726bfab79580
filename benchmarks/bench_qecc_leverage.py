"""QECC leverage: the paper's Section 7 claim, quantified per benchmark.

"Since quantum error correction can have overhead exponential in
program execution time, these speedups can be even more significant
than they appear, because they offer important leverage in allowing
complex QC programs to complete with manageable levels of QECC."

For every benchmark we provision a concatenated code for (a) the
sequential naive-movement execution and (b) the LPFS + local-memory
schedule, at the same success target, and report the *physical*
speedup — logical speedup amplified by any concatenation level the
faster schedule avoids.
"""

from __future__ import annotations

import math

import pytest

from repro.arch.qecc import speedup_leverage

from figdata import benchmark_names, compile_benchmark, min_qubits, print_table


def _compute():
    rows = []
    for key in benchmark_names():
        r = compile_benchmark(key, "lpfs", k=4, local=math.inf)
        q = min_qubits(key)
        rep = speedup_leverage(
            baseline_runtime=r.naive_runtime,
            accelerated_runtime=r.runtime,
            logical_qubits=q,
            physical_error=1e-4,
            target_success=0.9,
        )
        rows.append(
            (
                key,
                f"{rep.logical_speedup:.2f}x",
                rep.baseline.level,
                rep.accelerated.level,
                f"{rep.physical_speedup:.2f}x",
                f"{rep.qubit_saving:.0f}x",
            )
        )
    return rows


@pytest.mark.benchmark(group="qecc")
def test_qecc_leverage(benchmark):
    rows = benchmark.pedantic(_compute, rounds=1, iterations=1)
    print_table(
        "QECC leverage — Steane concatenation provisioned for naive vs "
        "LPFS+local-memory execution (p=1e-4, 90% success)",
        ["benchmark", "logical speedup", "naive level", "sched level",
         "physical speedup", "qubit saving"],
        rows,
        note=(
            "Paper Sec 7: faster schedules need weaker error "
            "correction; crossing a concatenation level converts a "
            "constant-factor speedup into exponential physical savings."
        ),
    )
    # Physical speedup never understates the logical one.
    for row in rows:
        logical = float(row[1].rstrip("x"))
        physical = float(row[4].rstrip("x"))
        assert physical >= logical - 1e-9, row
