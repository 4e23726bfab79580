"""Tests for schedule/result reporting and export."""

import json

import pytest

from repro.arch.machine import MultiSIMD
from repro.core.builder import ProgramBuilder
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.sched.comm import derive_movement
from repro.sched.rcp import schedule_rcp
from repro.sched.report import (
    compile_result_to_dict,
    profile_table,
    render_timeline,
    schedule_to_dict,
)
from repro.sched.types import Schedule
from repro.toolflow import compile_and_schedule

Q = [Qubit("q", i) for i in range(4)]


def small_schedule():
    dag = DependenceDAG(
        [
            Operation("H", (Q[0],)),
            Operation("H", (Q[1],)),
            Operation("CNOT", (Q[0], Q[1])),
            Operation("T", (Q[0],)),
        ]
    )
    sched = schedule_rcp(dag, k=2)
    derive_movement(sched, MultiSIMD(k=2))
    return sched


def hand_built_schedule():
    """Region 1 idle at t=0, an empty timestep at t=1, and moves."""
    dag = DependenceDAG(
        [
            Operation("H", (Q[0],)),
            Operation("CNOT", (Q[0], Q[1])),
            Operation("Rz", (Q[2],), 0.25),
        ]
    )
    sched = Schedule(dag, k=3, d=2, algorithm="hand")
    sched.append_timestep({2: [2], 0: [0], 1: []})
    sched.append_timestep({})
    sched.append_timestep({1: [1]})
    derive_movement(sched, MultiSIMD(k=3, local_memory=1))
    return sched


def small_result():
    pb = ProgramBuilder()
    sub = pb.module("sub")
    p = sub.param_register("p", 1)
    sub.t(p[0]).h(p[0])
    main = pb.module("main")
    q = main.register("q", 2)
    main.toffoli_args = None
    main.h(q[0])
    main.call("sub", [q[0]], iterations=3)
    main.cnot(q[0], q[1])
    return compile_and_schedule(
        pb.build("main"), MultiSIMD(k=2), decompose=False, fth=0
    )


class TestTimeline:
    def test_exact_text(self):
        assert render_timeline(small_schedule()).split("\n") == [
            "cycle  region 0                  region 1       "
            "           moves                   ",
            "-" * 83,
            "1      H(q0) H(q1)                              "
            "           2 teleport",
            "2      CNOT(q0,q1)",
            "3      T(q0)",
        ]

    def test_exact_text_idle_region_and_empty_timestep(self):
        assert render_timeline(hand_built_schedule()).split("\n") == [
            "cycle  region 0                  region 1       "
            "           region 2                  moves      "
            "             ",
            "-" * 109,
            "1      H(q0)                                    "
            "           Rz(q2)                    2 teleport",
            "2",
            "3                                CNOT(q0,q1)    "
            "                                     2 teleport",
        ]

    def test_contains_all_timesteps(self):
        sched = small_schedule()
        text = render_timeline(sched)
        assert "region 0" in text and "region 1" in text
        assert "CNOT" in text
        assert "teleport" in text

    def test_truncation(self):
        dag = DependenceDAG([Operation("T", (Q[0],)) for _ in range(20)])
        sched = schedule_rcp(dag, k=1)
        text = render_timeline(sched, max_timesteps=5)
        assert "15 more timesteps" in text

    def test_hide_qubits(self):
        text = render_timeline(small_schedule(), show_qubits=False)
        assert "(q0" not in text
        assert "CNOT" in text


class TestScheduleDict:
    def test_exact_export_keeps_idle_regions(self):
        """Every timestep lists all k regions, idle ones and empty
        timesteps included."""
        h = {"node": 0, "gate": "H", "qubits": ["q[0]"]}
        cnot = {"node": 1, "gate": "CNOT", "qubits": ["q[0]", "q[1]"]}
        rz = {"node": 2, "gate": "Rz", "qubits": ["q[2]"]}

        def teleport(qubit, src, dst):
            return {"qubit": qubit, "src": src, "dst": dst,
                    "kind": "teleport"}

        assert schedule_to_dict(hand_built_schedule()) == {
            "algorithm": "hand",
            "k": 3,
            "d": 2,
            "length": 3,
            "op_count": 3,
            "max_width": 2,
            "teleport_moves": 4,
            "local_moves": 0,
            "statements": [
                {"gate": "H", "qubits": ["q[0]"]},
                {"gate": "CNOT", "qubits": ["q[0]", "q[1]"]},
                {"gate": "Rz", "qubits": ["q[2]"], "angle": 0.25},
            ],
            "timesteps": [
                {
                    "regions": [[h], [], [rz]],
                    "moves": [
                        teleport("q[0]", ["global"], ["region", 0]),
                        teleport("q[2]", ["global"], ["region", 2]),
                    ],
                },
                {"regions": [[], [], []], "moves": []},
                {
                    "regions": [[], [cnot], []],
                    "moves": [
                        teleport("q[0]", ["region", 0], ["region", 1]),
                        teleport("q[1]", ["global"], ["region", 1]),
                    ],
                },
            ],
        }

    def test_json_serialisable(self):
        d = schedule_to_dict(small_schedule())
        text = json.dumps(d)
        back = json.loads(text)
        assert back["k"] == 2
        assert back["op_count"] == 4
        assert len(back["timesteps"]) == back["length"]

    def test_moves_exported(self):
        d = schedule_to_dict(small_schedule())
        all_moves = [m for ts in d["timesteps"] for m in ts["moves"]]
        assert all_moves
        assert all(m["kind"] in ("teleport", "local") for m in all_moves)

    def test_gate_and_qubit_names(self):
        d = schedule_to_dict(small_schedule())
        ops = [
            o
            for ts in d["timesteps"]
            for region in ts["regions"]
            for o in region
        ]
        assert {"gate", "qubits"} <= set(ops[0])
        assert any(o["gate"] == "CNOT" for o in ops)


class TestResultDict:
    def test_json_serialisable(self):
        d = compile_result_to_dict(small_result())
        back = json.loads(json.dumps(d))
        assert back["entry"] == "main"
        assert back["total_gates"] == 8
        assert "sub" in back["modules"]
        assert back["modules"]["sub"]["is_leaf"] is True

    def test_speedups_present(self):
        d = compile_result_to_dict(small_result())
        for key in (
            "parallel_speedup", "cp_speedup", "comm_aware_speedup",
        ):
            assert isinstance(d[key], float)

    def test_infinite_d_encoded(self):
        d = compile_result_to_dict(small_result())
        assert d["machine"]["d"] == "inf"


class TestProfileTable:
    def test_contains_modules_and_widths(self):
        text = profile_table(small_result())
        assert "sub" in text and "main" in text
        assert "w=1" in text and "w=2" in text

    def test_metric_selection(self):
        r = small_result()
        assert profile_table(r, "length") != profile_table(r, "runtime")
        with pytest.raises(ValueError):
            profile_table(r, "latency")


class TestCoarseGantt:
    def test_render(self):
        from repro.core.module import Module
        from repro.core.operation import CallSite
        from repro.sched.coarse import schedule_coarse
        from repro.sched.report import render_coarse_gantt

        body = [CallSite("box", (Q[i],)) for i in range(3)]
        body.append(CallSite("box", (Q[0],)))
        res = schedule_coarse(
            Module("m", (), body), {"box": {1: 10, 2: 6}}, k=3
        )
        text = render_coarse_gantt(res)
        assert "coarse schedule of 'm'" in text
        assert "#" in text
        assert text.count("n") >= 4  # one row per placement

    def test_truncation(self):
        from repro.core.module import Module
        from repro.core.operation import CallSite
        from repro.sched.coarse import schedule_coarse
        from repro.sched.report import render_coarse_gantt

        body = [CallSite("box", (Q[0],)) for _ in range(10)]
        res = schedule_coarse(
            Module("m", (), body), {"box": {1: 5}}, k=2
        )
        text = render_coarse_gantt(res, max_rows=3)
        assert "7 more" in text
