"""Ablation: RCP's priority weights (Section 4.1).

RCP's priority mixes operation-type prevalence (w_op), operand
locality (w_dist) and slack (w_slack); the paper sets all three to 1.
This ablation zeroes each term in turn and measures schedule length
and — for the locality term — the teleport count it exists to reduce.
"Locality only" is judged against "no terms", the same priority with
w_dist zeroed too, not against "no locality": see the table's note.
"""

from __future__ import annotations

import pytest

from repro.arch.machine import MultiSIMD
from repro.benchmarks import BENCHMARKS
from repro.core.dag import DependenceDAG
from repro.passes.decompose import decompose_program
from repro.passes.flatten import flatten_program
from repro.sched.comm import derive_movement
from repro.sched.rcp import RCPWeights, schedule_rcp

from figdata import print_table

CONFIGS = [
    ("all 1 (paper)", RCPWeights(1, 1, 1)),
    ("no type term", RCPWeights(0, 1, 1)),
    ("no locality", RCPWeights(1, 0, 1)),
    ("no slack", RCPWeights(1, 1, 0)),
    ("locality only", RCPWeights(0, 10, 0)),
    ("no terms", RCPWeights(0, 0, 0)),
]
KEY = "Grovers"
K = 4


def _dags():
    spec = BENCHMARKS[KEY]
    prog = flatten_program(
        decompose_program(spec.build()), fth=spec.fth
    ).program
    return [
        DependenceDAG(list(m.body))
        for m in prog.leaf_modules()
        if m.direct_gate_count > 50
    ]


def _compute():
    data = {}
    dags = _dags()
    for label, weights in CONFIGS:
        length = 0
        teleports = 0
        for dag in dags:
            sched = schedule_rcp(dag, k=K, weights=weights)
            sched.validate()
            stats = derive_movement(sched, MultiSIMD(k=K))
            length += sched.length
            teleports += stats.teleports
        data[label] = (length, teleports)
    return data


@pytest.mark.benchmark(group="ablation-rcp")
def test_ablation_rcp_weights(benchmark):
    data = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = [
        [label, f"{length:,}", f"{teleports:,}"]
        for label, (length, teleports) in data.items()
    ]
    print_table(
        f"Ablation — RCP weight terms on {KEY} leaf modules (k={K})",
        ["weights", "sched length", "teleports"],
        rows,
        note=(
            "w_dist exists to cut movement: dropping it from the paper's "
            "weights should not reduce teleports, and boosting it alone "
            "should cut them against 'no terms'. It need not beat 'no "
            "locality': with w_op = 0 every ready op of the picked gate "
            "joins the batch wherever its operands live, and the (gate, "
            "region) tie-break settles most picks, so that comparison "
            "flips with the tie-break order."
        ),
    )
    paper_len, paper_tp = data["all 1 (paper)"]
    _, no_loc_tp = data["no locality"]
    _, loc_only_tp = data["locality only"]
    _, no_terms_tp = data["no terms"]
    assert paper_tp <= no_loc_tp * 1.02
    assert loc_only_tp <= no_terms_tp * 1.02
    # Schedules stay valid and near each other in length.
    for label, (length, _) in data.items():
        assert length <= 1.5 * paper_len, label
