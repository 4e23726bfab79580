"""Out-of-core schedule export: the ``repro.schedule-stream/1`` format.

A streamed schedule at paper scale (10^7 gates, ~7*10^6 epochs) cannot
round-trip through :func:`repro.sched.report.schedule_to_dict` — that
is one JSON document holding every statement and timestep at once. The
stream format is JSON *Lines*, written epoch-at-a-time as movement
derivation retires each epoch and readable epoch-at-a-time by the
execution engine, so neither side ever holds more than one epoch:

* line 1 — header: schema, module/algorithm/k/d, totals, and the
  interned ``qubits`` and ``gates`` name tables (every later line
  refers to ids);
* one line per timestep: ``{"t": .., "moves": [[qid, src, dst, kind],
  ..], "regions": [[r, [[node, gid, [qid, ..]], ..]], ..]}`` — the
  movement epoch *preceding* the timestep, then the region contents
  (an op entry gains a 4th element when it carries an angle). Locations
  are ``["global"]``, ``["region", r]`` or ``["local", r]``;
* footer: the :class:`~repro.sched.comm.CommStats` dict (same shape as
  the single-document export) and the timestep count, which doubles as
  a truncation check.

Files ending in ``.gz`` are transparently gzip-compressed (the CI
artifact form). Small files can be inflated back to a boxed
:class:`~repro.sched.types.Schedule` for the differential battery.

The reader trusts nothing: every id, region and location is checked
against the header, and any malformed line raises
:class:`ScheduleStreamError` naming its line number.
"""

from __future__ import annotations

import gzip
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..arch.machine import MultiSIMD
from ..core.dag import DependenceDAG
from ..core.gates import GATES
from ..core.operation import Operation
from ..sched.comm import CommStats
from ..sched.report import (
    _comm_from_dict,
    _comm_to_dict,
    _parse_qubit,
    _qubit_name,
)
from ..sched.stream import (
    StreamColumns,
    StreamedSchedule,
    derive_movement_stream,
)
from ..sched.types import Move, Schedule

__all__ = [
    "STREAM_SCHEMA",
    "ScheduleStreamError",
    "write_schedule_stream",
    "read_schedule_stream",
    "stream_ops",
    "validate_schedule_stream",
    "inflate_schedule_stream",
    "execute_schedule_stream",
]

STREAM_SCHEMA = "repro.schedule-stream/1"

#: Header fields the readers rely on.
_HEADER_FIELDS = (
    "module", "algorithm", "k", "d", "op_count", "length", "qubits", "gates"
)


class ScheduleStreamError(ValueError):
    """Malformed stream content; the message starts with ``line N:``."""


class _Table(dict):
    """A lookup table whose misses raise a ``ValueError`` naming the
    key (a negative or out-of-range id never wraps around)."""

    def __init__(self, items, what: str) -> None:
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{json.dumps(key)} is not {self.what}")


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON at column {exc.colno}: {exc.msg}"
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc)


def _open(path: str, mode: str):
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _loc_to_json(loc: tuple) -> List[Any]:
    return list(loc)


def write_schedule_stream(
    path: str,
    cols: StreamColumns,
    ssched: StreamedSchedule,
    machine: MultiSIMD,
    module: str = "",
) -> CommStats:
    """Derive movement for ``ssched`` and export it epoch-at-a-time.

    Returns the communication profile (also written to the footer).
    Memory is bounded by one epoch plus the derivation state — the file
    is written as the epochs retire, never assembled.
    """
    qubit_ids = {id(q): i for i, q in enumerate(cols.qubits)}
    angles = cols.angles
    op_q, op_off = cols.op_q, cols.op_off
    gate_ids = cols.gate_ids

    with _open(path, "w") as fh:
        header = {
            "schema": STREAM_SCHEMA,
            "module": module,
            "algorithm": ssched.algorithm,
            "k": ssched.k,
            "d": ssched.d,
            "op_count": ssched.op_count,
            "length": ssched.length,
            "max_width": ssched.max_width,
            "qubits": [_qubit_name(q) for q in cols.qubits],
            "gates": list(cols.gate_names),
        }
        fh.write(json.dumps(header, separators=(",", ":")))
        fh.write("\n")

        def sink(
            t: int,
            epoch: List[Move],
            regions: List[Tuple[int, List[int]]],
        ) -> None:
            moves = [
                [
                    qubit_ids[id(m.qubit)],
                    _loc_to_json(m.src),
                    _loc_to_json(m.dst),
                    m.kind,
                ]
                for m in epoch
            ]
            regs = []
            for r, nodes in regions:
                ops = []
                for node in nodes:
                    entry: List[Any] = [
                        node,
                        gate_ids[node],
                        list(op_q[op_off[node] : op_off[node + 1]]),
                    ]
                    angle = angles.get(node)
                    if angle is not None:
                        entry.append(angle)
                    ops.append(entry)
                regs.append([r, ops])
            fh.write(
                json.dumps(
                    {"t": t, "moves": moves, "regions": regs},
                    separators=(",", ":"),
                )
            )
            fh.write("\n")

        stats = derive_movement_stream(cols, ssched, machine, sink=sink)
        footer = {
            "comm": _comm_to_dict(stats),
            "timesteps": ssched.length,
        }
        fh.write(json.dumps(footer, separators=(",", ":")))
        fh.write("\n")
    return stats


class StreamEpoch:
    """One decoded timestep: the preceding movement epoch plus region
    contents, with ids resolved to boxed objects."""

    __slots__ = ("t", "moves", "regions")

    def __init__(
        self,
        t: int,
        moves: List[Move],
        regions: List[Tuple[int, List[Tuple[int, Operation]]]],
    ):
        self.t = t
        self.moves = moves
        self.regions = regions


def _read_header(fh) -> Dict[str, Any]:
    """Decode and check line 1 (raises ``ValueError``)."""
    header = json.loads(fh.readline())
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    if header.get("schema") != STREAM_SCHEMA:
        raise ValueError(
            f"not a {STREAM_SCHEMA} file: {header.get('schema')!r}"
        )
    missing = [f for f in _HEADER_FIELDS if f not in header]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    k = header["k"]
    if type(k) is not int or k < 1:
        raise ValueError(f"header k={k!r} is not a positive integer")
    names = header["qubits"]
    if not isinstance(names, list) or not all(
        isinstance(name, str) for name in names
    ):
        raise ValueError("header qubits is not a list of qubit names")
    if not isinstance(header["gates"], list):
        raise ValueError("header gates is not a list of gate names")
    for gate in header["gates"]:
        if not isinstance(gate, str) or gate not in GATES:
            raise ValueError(f"header names unknown gate {gate!r}")
    return header


def read_schedule_stream(
    path: str,
) -> Tuple[Dict[str, Any], Iterator[StreamEpoch], List[Optional[CommStats]]]:
    """Open a stream export: ``(header, epoch iterator, footer box)``.

    The iterator yields :class:`StreamEpoch` one line at a time; after
    it is exhausted, ``footer_box[0]`` holds the footer's
    :class:`CommStats` (None until then, and a missing footer raises —
    a truncated file never passes silently).

    Raises:
        ScheduleStreamError: from this call for a bad header, from the
            iterator for a bad line — an undecodable line, an id the
            header does not declare, a region outside ``0 <= r < k``,
            a location other than ``global``/``region r``/``local r``,
            or a missing footer.
    """
    fh = _open(path, "r")
    try:
        header = _read_header(fh)
        qubits = _Table(
            enumerate(map(_parse_qubit, header["qubits"])),
            f"a qubit id (the header declares {len(header['qubits'])})",
        )
    except (EOFError, OSError, ValueError) as exc:
        fh.close()
        raise ScheduleStreamError(f"line 1: {_reason(exc)}") from None
    gates = _Table(
        enumerate(header["gates"]),
        f"a gate id (the header declares {len(header['gates'])})",
    )
    k = header["k"]
    region_ids = range(k)
    locations = _Table(
        [(("global",), ("global",))]
        + [((kind, r), (kind, r)) for kind in ("region", "local")
           for r in region_ids],
        f"a location (global, region r or local r with 0 <= r < {k})",
    )
    footer_box: List[Optional[CommStats]] = [None]

    def epochs() -> Iterator[StreamEpoch]:
        seen = 0
        lineno = 1
        try:
            while True:
                lineno += 1
                try:
                    line = fh.readline()
                    if not line:
                        raise ValueError(
                            "stream truncated: no footer after "
                            f"{seen}/{header['length']} timesteps"
                        )
                    data = json.loads(line)
                    if not isinstance(data, dict):
                        raise ValueError("line is not a JSON object")
                    if "comm" in data:
                        if data.get("timesteps") != seen:
                            raise ValueError(
                                "stream footer says "
                                f"{data.get('timesteps')} timesteps, "
                                f"read {seen}"
                            )
                        footer_box[0] = _comm_from_dict(data["comm"])
                        return
                    moves = [
                        Move(
                            qubits[qid],
                            locations[tuple(src)],
                            locations[tuple(dst)],
                            kind,
                        )
                        for qid, src, dst, kind in data["moves"]
                    ]
                    regions: List[Tuple[int, List[Tuple[int, Operation]]]] = []
                    for r, ops in data["regions"]:
                        if r not in region_ids:
                            raise ValueError(
                                f"region {r!r} is out of range for k={k}"
                            )
                        boxed = [
                            (
                                entry[0],
                                Operation(
                                    gates[entry[1]],
                                    tuple([qubits[q] for q in entry[2]]),
                                    entry[3] if len(entry) > 3 else None,
                                ),
                            )
                            for entry in ops
                        ]
                        regions.append((r, boxed))
                    epoch = StreamEpoch(data["t"], moves, regions)
                except (
                    EOFError, LookupError, OSError, TypeError, ValueError
                ) as exc:
                    raise ScheduleStreamError(
                        f"line {lineno}: {_reason(exc)}"
                    ) from None
                yield epoch
                seen += 1
        finally:
            fh.close()

    return header, epochs(), footer_box


def stream_ops(path: str) -> Tuple[Dict[str, Any], Iterator[Operation]]:
    """Replay-order operations of a stream export, one line at a time.

    Yields each scheduled op in execution order — timestep-major,
    region index ascending, insertion order within a region (the order
    :func:`execute_schedule_stream` and the reversible-simulator replay
    both walk). Returns ``(header, op iterator)``; the iterator still
    enforces the footer/truncation checks of
    :func:`read_schedule_stream`, so a clipped file raises instead of
    silently verifying a prefix.
    """
    header, epochs, _footer = read_schedule_stream(path)

    def ops() -> Iterator[Operation]:
        for epoch in epochs:
            for _r, boxed in epoch.regions:
                for _node, op in boxed:
                    yield op

    return header, ops()


def validate_schedule_stream(path: str) -> Dict[str, Any]:
    """Fully scan a stream export and return its summary (header fields
    plus counted totals). Raises on schema mismatch, truncation, or an
    op-count/timestep disagreement."""
    header, epochs, footer_box = read_schedule_stream(path)
    op_count = 0
    timesteps = 0
    moves = 0
    for epoch in epochs:
        if epoch.t != timesteps:
            raise ValueError(
                f"epoch line out of order: t={epoch.t} at position "
                f"{timesteps}"
            )
        timesteps += 1
        moves += len(epoch.moves)
        for _, ops in epoch.regions:
            op_count += len(ops)
    if timesteps != header["length"]:
        raise ValueError(
            f"header says length={header['length']}, read {timesteps}"
        )
    if op_count != header["op_count"]:
        raise ValueError(
            f"header says op_count={header['op_count']}, read {op_count}"
        )
    stats = footer_box[0]
    assert stats is not None
    return {
        "schema": header["schema"],
        "module": header["module"],
        "algorithm": header["algorithm"],
        "k": header["k"],
        "d": header["d"],
        "op_count": op_count,
        "timesteps": timesteps,
        "moves": moves,
        "runtime": stats.runtime,
    }


def execute_schedule_stream(
    path: str,
    machine: MultiSIMD,
    config=None,
    sample_every: int = 1,
) -> Tuple[Dict[str, Any], Any, Optional[CommStats]]:
    """Run the engine directly over a stream export.

    Feeds :func:`repro.engine.executor.run_schedule_stream` one decoded
    epoch at a time — the schedule is never inflated, so a 10^7-gate
    export executes in bounded memory. Returns ``(header, EngineResult,
    CommStats)``; the stats come from the footer and are therefore the
    compile-time communication profile, not re-derived.
    """
    from ..engine.executor import run_schedule_stream

    header, epochs, footer_box = read_schedule_stream(path)

    def adapt():
        for epoch in epochs:
            yield epoch.moves, [
                (r, ops[0][1].gate, len(ops))
                for r, ops in epoch.regions
                if ops
            ]

    result = run_schedule_stream(
        adapt(),
        header["k"],
        machine,
        config=config,
        scope=header.get("module") or "stream",
        sample_every=sample_every,
    )
    return header, result, footer_box[0]


def inflate_schedule_stream(path: str) -> Tuple[Schedule, CommStats]:
    """Rebuild a boxed :class:`Schedule` (with moves) from a stream
    export — small files only; this rematerializes everything."""
    header, epochs, footer_box = read_schedule_stream(path)
    n = header["op_count"]
    statements: List[Optional[Operation]] = [None] * n
    placements: List[Tuple[List[Move], List[Tuple[int, List[int]]]]] = []
    for epoch in epochs:
        regions: List[Tuple[int, List[int]]] = []
        for r, ops in epoch.regions:
            nodes = []
            for node, op in ops:
                statements[node] = op
                nodes.append(node)
            regions.append((r, nodes))
        placements.append((epoch.moves, regions))
    missing = sum(1 for s in statements if s is None)
    if missing:
        raise ValueError(f"stream schedules only {n - missing}/{n} ops")
    dag = DependenceDAG(statements)
    sched = Schedule(
        dag, k=header["k"], d=header["d"], algorithm=header["algorithm"]
    )
    for moves, regions in placements:
        ts = sched.append_timestep()
        ts.moves = moves
        for r, nodes in regions:
            ts.regions[r].extend(nodes)
    stats = footer_box[0]
    assert stats is not None
    return sched, stats
