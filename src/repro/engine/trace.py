"""Structured event traces for engine runs (schema ``repro.trace/1``).

An engine run emits :class:`TraceEvent` records — gate batches, movement
epochs, stalls, faults, and coarse blackbox spans — onto an
:class:`EventTrace`. The trace exports two ways:

* the **native payload** (:meth:`EventTrace.to_payload`): a versioned,
  JSON-safe document with per-track utilization and stall-breakdown
  stats, validated by :func:`validate_trace_payload`;
* the **Chrome trace-event format** (:func:`chrome_trace_events` /
  :func:`write_chrome_trace`): complete-duration (``"ph": "X"``) events
  plus process/thread metadata, loadable in ``chrome://tracing`` and
  Perfetto (https://ui.perfetto.dev). One engine cycle maps to one
  microsecond of trace time.

Event vocabulary (``cat``): ``gate`` (one SIMD region-timestep batch),
``move`` (one movement epoch), ``stall`` (EPR / bandwidth / fault
waits), ``fault`` (instantaneous fault markers), ``blackbox`` (coarse
placements of callee modules).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "TraceEvent",
    "EventTrace",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_trace_payload",
]

#: Version tag of the native trace document layout.
TRACE_SCHEMA = "repro.trace/1"

#: Known event categories.
_CATEGORIES = ("gate", "move", "stall", "fault", "blackbox")


@dataclass(frozen=True)
class TraceEvent:
    """One traced span or marker.

    Attributes:
        name: display name (gate type, ``teleport-epoch``, stall
            reason, callee name ...).
        cat: one of ``gate``/``move``/``stall``/``fault``/``blackbox``.
        start: engine cycle the event begins at.
        duration: cycles covered (0 = instantaneous marker).
        track: lane the event renders on (``region0``..,
            ``memory``, ``coarse0``.. for blackbox rows).
        args: extra JSON-safe attributes (op counts, pair counts ...).
    """

    name: str
    cat: str
    start: int
    duration: int
    track: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cat not in _CATEGORIES:
            raise ValueError(f"unknown trace category {self.cat!r}")
        if self.start < 0 or self.duration < 0:
            raise ValueError("trace events cannot have negative time")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "dur": self.duration,
            "track": self.track,
        }
        if self.args:
            out["args"] = self.args
        return out


class EventTrace:
    """An append-only event collection for one execution scope.

    Attributes:
        scope: the module (or program) the events belong to.
        core: owning core index for multi-core executions (``None``
            for single-core traces — the default, and the wire format
            then omits the field entirely).
        events: the events, in emission order.
    """

    def __init__(self, scope: str = "", core: Optional[int] = None) -> None:
        self.scope = scope
        self.core = core
        self.events: List[TraceEvent] = []

    def emit(
        self,
        name: str,
        cat: str,
        start: int,
        duration: int,
        track: str,
        **args: Any,
    ) -> None:
        self.events.append(
            TraceEvent(name, cat, start, duration, track, args)
        )

    def __len__(self) -> int:
        return len(self.events)

    def busy_by_track(self) -> Dict[str, int]:
        """Cycles covered by non-stall events, per track."""
        out: Dict[str, int] = {}
        for e in self.events:
            if e.cat in ("gate", "move", "blackbox"):
                out[e.track] = out.get(e.track, 0) + e.duration
        return out

    def stall_cycles(self) -> Dict[str, int]:
        """Stalled cycles broken down by stall reason (event name)."""
        out: Dict[str, int] = {}
        for e in self.events:
            if e.cat == "stall":
                out[e.name] = out.get(e.name, 0) + e.duration
        return out

    def to_payload(
        self,
        runtime: int,
        machine: Optional[Dict[str, Any]] = None,
        stats: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The versioned native trace document for this scope."""
        return build_payload(
            [(self.scope, self)],
            runtime=runtime,
            machine=machine,
            stats=stats,
        )


def build_payload(
    sections: List[Tuple[str, EventTrace]],
    runtime: int,
    machine: Optional[Dict[str, Any]] = None,
    stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a ``repro.trace/1`` document from per-scope traces.

    Multi-scope payloads (one section per module of a program
    execution) keep each scope as a Chrome "process"; events carry
    their scope in a ``pid`` field.
    """
    events: List[Dict[str, Any]] = []
    for scope, trace in sections:
        for e in trace.events:
            record = e.to_dict()
            record["pid"] = scope or "program"
            if trace.core is not None:
                record["core"] = trace.core
            events.append(record)
    utilization = {}
    for scope, trace in sections:
        busy = trace.busy_by_track()
        if runtime > 0:
            utilization[scope or "program"] = {
                track: cycles / runtime
                for track, cycles in sorted(busy.items())
            }
    payload: Dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "generator": "repro.engine",
        "runtime_cycles": runtime,
        "machine": machine or {},
        "stats": {
            "events": len(events),
            "utilization": utilization,
            "stalls": _merge_stalls(sections),
            **(stats or {}),
        },
        "events": events,
    }
    return payload


def _merge_stalls(
    sections: List[Tuple[str, EventTrace]],
) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for _, trace in sections:
        for name, cycles in trace.stall_cycles().items():
            out[name] = out.get(name, 0) + cycles
    return out


# -- Chrome trace-event export ------------------------------------------


def chrome_trace_events(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Convert a native payload to Chrome trace-event JSON records.

    Emits ``"ph": "X"`` complete events (1 cycle = 1 µs) plus ``"M"``
    metadata records naming each process (scope) and thread (track), so
    the result loads directly in ``chrome://tracing`` and Perfetto.
    Zero-duration events are emitted as instant (``"ph": "i"``)
    markers.

    Multi-core events (records carrying a ``core`` field) render one
    lane per core: the thread id is the core id (offset into a
    reserved band so it can never collide with the track lanes), named
    ``core<N>``. Single-core payloads carry no ``core`` fields and are
    exported exactly as before.
    """
    # Track lanes count up from 1; core lanes live at 1000 + core so
    # the two id spaces cannot collide within a process.
    core_lane_base = 1000
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    core_lanes: set = set()
    out: List[Dict[str, Any]] = []
    for e in payload.get("events", []):
        scope = e.get("pid", "program")
        if scope not in pids:
            pids[scope] = len(pids) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[scope],
                    "tid": 0,
                    "args": {"name": scope},
                }
            )
        core = e.get("core")
        if core is not None:
            tid = core_lane_base + core
            if (scope, core) not in core_lanes:
                core_lanes.add((scope, core))
                out.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pids[scope],
                        "tid": tid,
                        "args": {"name": f"core{core}"},
                    }
                )
        else:
            key = (scope, e["track"])
            if key not in tids:
                tids[key] = len(tids) + 1
                out.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pids[scope],
                        "tid": tids[key],
                        "args": {"name": e["track"]},
                    }
                )
            tid = tids[key]
        record = {
            "name": e["name"],
            "cat": e["cat"],
            "pid": pids[scope],
            "tid": tid,
            "ts": e["start"],
            "args": e.get("args", {}),
        }
        if e["dur"] > 0:
            record["ph"] = "X"
            record["dur"] = e["dur"]
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    return out


def write_chrome_trace(path: str, payload: Dict[str, Any]) -> int:
    """Write ``payload`` as a Chrome trace file; returns event count.

    The output is the object form (``{"traceEvents": [...]}``) with the
    native schema tag preserved in ``otherData`` for provenance.
    """
    events = chrome_trace_events(payload)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": payload.get("schema", TRACE_SCHEMA),
            "generator": payload.get("generator", "repro.engine"),
            "runtime_cycles": payload.get("runtime_cycles"),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return len(events)


# -- validation ----------------------------------------------------------


def validate_trace_payload(payload: Any) -> List[str]:
    """Structural check of a ``repro.trace/1`` document.

    Returns a list of problems (empty when valid). Hand-rolled like
    :func:`repro.service.validate_perf_payload`; the schema is
    documented in ``DESIGN.md``.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"schema: expected {TRACE_SCHEMA!r}, got "
            f"{payload.get('schema')!r}"
        )
    runtime = payload.get("runtime_cycles")
    if not isinstance(runtime, int) or runtime < 0:
        problems.append(
            f"runtime_cycles: expected non-negative int, got {runtime!r}"
        )
    if not isinstance(payload.get("machine"), dict):
        problems.append("machine: expected object")
    stats = payload.get("stats")
    if not isinstance(stats, dict):
        problems.append("stats: expected object")
    else:
        for key in ("utilization", "stalls"):
            if not isinstance(stats.get(key), dict):
                problems.append(f"stats.{key}: expected object")
    events = payload.get("events")
    if not isinstance(events, list):
        return problems + ["events: expected array"]
    for idx, e in enumerate(events):
        where = f"events[{idx}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, types in (
            ("name", str),
            ("cat", str),
            ("track", str),
            ("start", int),
            ("dur", int),
        ):
            if not isinstance(e.get(key), types):
                problems.append(
                    f"{where}.{key}: expected {types.__name__}, got "
                    f"{type(e.get(key)).__name__}"
                )
        if e.get("cat") not in _CATEGORIES:
            problems.append(
                f"{where}.cat: unknown category {e.get('cat')!r}"
            )
        if "core" in e and not (
            isinstance(e["core"], int) and e["core"] >= 0
        ):
            problems.append(
                f"{where}.core: expected non-negative int, got "
                f"{e['core']!r}"
            )
        if isinstance(e.get("start"), int) and isinstance(
            e.get("dur"), int
        ):
            if e["start"] < 0 or e["dur"] < 0:
                problems.append(f"{where}: negative time")
            elif (
                isinstance(runtime, int)
                and e["start"] + e["dur"] > runtime
            ):
                problems.append(
                    f"{where}: extends past runtime_cycles "
                    f"({e['start']}+{e['dur']} > {runtime})"
                )
    return problems
