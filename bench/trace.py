"""Outside-in layer tracing for the benchmark.

The benchmark times layers without touching ``src/``: each hook below
rebinds one public entry point *in the module that calls it* (for
example ``repro.toolflow.derive_movement``) to a wrapper that records a
span — name, start, end, parent id — on a stack. A layer's self time is
its span minus the child spans inside it, so self times never
double-count and, together with the pass's residual (wall time outside
every top-level span), add up to the pass wall time.

Two layers do their work lazily, inside another layer's call: reading a
schedule stream yields epochs while the engine consumes them, and
writing one serializes each epoch from a callback inside movement
derivation. Their hooks time each ``next()`` / callback and move that
time from the enclosing span to their own layer, without recording one
span per epoch.

A hook target that does not exist is an error (:class:`HookError`),
never a silently empty layer.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "COUNTERS",
    "HOOKS",
    "LAYERS",
    "LAYER_FIELDS",
    "Hook",
    "HookError",
    "Tracer",
    "installed",
    "per_layer_names",
]

#: Layers, named after the modules they time.
LAYERS: Tuple[str, ...] = (
    "passes.decompose",
    "passes.flatten",
    "passes.plan",
    "passes.resource",
    "core.dag",
    "sched.rcp",
    "sched.lpfs",
    "sched.columns",
    "sched.stream",
    "sched.comm",
    "sched.coarse",
    "engine.leaf",
    "engine.stream",
    "service.stream_io.write",
    "service.stream_io.read",
    "multicore.partition",
    "multicore.makespan",
    "sim.compile",
    "sim.reference",
    "sim.equivalent",
    "toolflow",
)

#: Per-layer fields, each reported as ``<layer>.<field>``.
LAYER_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("calls", "count"),
    ("self_s", "s"),
    ("ops", "count"),
    ("ns_per_op", "ns/op"),
    ("errors", "count"),
)

#: Counters read from return values, as ``<layer>.<counter>``.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("sched.comm.teleports", "count"),
    ("sched.comm.teleport_epochs", "count"),
    ("engine.leaf.stall_cycles", "cycles"),
    ("engine.leaf.epr_pairs", "count"),
    ("service.stream_io.write.bytes", "bytes"),
    ("multicore.partition.cut", "count"),
    ("sim.equivalent.lanes", "count"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [
        (f"{layer}.{name}", unit)
        for layer in LAYERS
        for name, unit in LAYER_FIELDS
    ]
    names.extend(COUNTERS)
    names.append(("residual_s", "s"))
    names.append(("trace_overhead", "ratio"))
    return names


class HookError(RuntimeError):
    """A hook target is missing: the layer it times would read zero."""


# -- what each hooked call counts ------------------------------------------


def _program_statements(program) -> int:
    return sum(len(mod.body) for mod in program)


def _first_len(args, kwargs, result) -> int:
    return len(args[0])


def _program_arg(args, kwargs, result) -> int:
    return _program_statements(args[0])


def _module_arg(args, kwargs, result) -> int:
    return len(args[0].body)


def _comm_counters(args, kwargs, result) -> Dict[str, int]:
    return {
        "teleports": result.teleports,
        "teleport_epochs": result.teleport_epochs,
    }


def _engine_counters(args, kwargs, result) -> Dict[str, int]:
    return {
        "stall_cycles": result.stalls.total,
        "epr_pairs": result.epr_pairs,
    }


@dataclass(frozen=True)
class Hook:
    """One rebinding: ``target`` is ``"module.attribute"``.

    ``ops`` maps ``(args, kwargs, result)`` to the work count of one
    call and ``counters`` maps them to extra counters. ``wrap_args``
    and ``wrap_result`` let a hook time work that happens lazily after
    (or inside) the call.
    """

    target: str
    layer: str
    ops: Optional[Callable[[tuple, dict, Any], int]] = None
    counters: Optional[Callable[[tuple, dict, Any], Dict[str, int]]] = None
    wrap_args: Optional[Callable[["Tracer", tuple, dict], None]] = None
    wrap_result: Optional[Callable[["Tracer", Any], Any]] = None


def _time_sink(tracer: "Tracer", args: tuple, kwargs: dict) -> None:
    sink = kwargs.get("sink")
    if sink is not None:
        kwargs["sink"] = tracer.lazy_call("service.stream_io.write", sink)


def _time_epochs(tracer: "Tracer", result):
    header, epochs, footer = result
    timed = tracer.lazy_iter(
        "service.stream_io.read",
        epochs,
        count=lambda epoch: sum(len(ops) for _r, ops in epoch.regions),
    )
    return header, timed, footer


def _write_counters(args, kwargs, result) -> Dict[str, int]:
    return {"bytes": os.path.getsize(args[0])}


_BENCH = "bench.workloads"

#: Every rebinding, grouped by layer. Targets in ``bench.workloads`` are
#: the benchmark's own calls into the library.
HOOKS: Tuple[Hook, ...] = (
    Hook("repro.toolflow.decompose_program", "passes.decompose",
         ops=_program_arg),
    Hook("repro.toolflow.decompose_module", "passes.decompose",
         ops=_module_arg),
    Hook("repro.multicore.toolflow.decompose_program", "passes.decompose",
         ops=_program_arg),
    Hook("repro.toolflow.flatten_program", "passes.flatten",
         ops=_program_arg),
    Hook("repro.multicore.toolflow.flatten_program", "passes.flatten",
         ops=_program_arg),
    Hook("repro.toolflow.decomposed_gate_counts", "passes.plan",
         ops=_program_arg),
    Hook("repro.toolflow.plan_flatten", "passes.plan", ops=_program_arg),
    Hook("repro.toolflow.estimate_resources", "passes.resource",
         ops=_program_arg),
    Hook("repro.toolflow.hierarchical_critical_path", "passes.resource",
         ops=_program_arg),
    Hook("repro.multicore.toolflow.estimate_resources", "passes.resource",
         ops=_program_arg),
    Hook("repro.multicore.toolflow.hierarchical_critical_path",
         "passes.resource", ops=_program_arg),
    Hook("repro.toolflow.DependenceDAG", "core.dag", ops=_first_len),
    Hook("repro.multicore.makespan.DependenceDAG", "core.dag",
         ops=_first_len),
    Hook("repro.toolflow.schedule_rcp", "sched.rcp",
         ops=lambda a, k, r: a[0].n),
    Hook("repro.toolflow.schedule_lpfs", "sched.lpfs",
         ops=lambda a, k, r: a[0].n),
    Hook("repro.toolflow.build_columns", "sched.columns",
         ops=lambda a, k, r: len(r)),
    Hook(f"{_BENCH}.build_columns", "sched.columns",
         ops=lambda a, k, r: len(r)),
    Hook("repro.toolflow.schedule_columns", "sched.stream",
         ops=lambda a, k, r: r.op_count),
    Hook(f"{_BENCH}.schedule_columns", "sched.stream",
         ops=lambda a, k, r: r.op_count),
    Hook("repro.toolflow.derive_movement", "sched.comm",
         ops=lambda a, k, r: a[0].op_count, counters=_comm_counters),
    Hook("repro.multicore.makespan.derive_movement", "sched.comm",
         ops=lambda a, k, r: a[0].op_count, counters=_comm_counters),
    Hook("repro.toolflow.derive_movement_stream", "sched.comm",
         ops=lambda a, k, r: a[1].op_count, counters=_comm_counters),
    Hook("repro.service.stream_io.derive_movement_stream", "sched.comm",
         ops=lambda a, k, r: a[1].op_count, counters=_comm_counters,
         wrap_args=_time_sink),
    Hook("repro.toolflow.coarse_length_profile", "sched.coarse",
         ops=_module_arg),
    Hook("repro.multicore.toolflow.coarse_length_profile", "sched.coarse",
         ops=_module_arg),
    Hook("repro.engine.executor.schedule_coarse", "sched.coarse",
         ops=_module_arg),
    Hook("repro.multicore.execute.schedule_coarse", "sched.coarse",
         ops=_module_arg),
    Hook("repro.engine.executor.run_schedule", "engine.leaf",
         ops=lambda a, k, r: r.ops_executed, counters=_engine_counters),
    Hook("repro.multicore.execute.run_schedule", "engine.leaf",
         ops=lambda a, k, r: r.ops_executed, counters=_engine_counters),
    Hook("repro.engine.executor.run_schedule_stream", "engine.stream",
         ops=lambda a, k, r: r.ops_executed),
    Hook(f"{_BENCH}.write_schedule_stream", "service.stream_io.write",
         ops=lambda a, k, r: a[2].op_count, counters=_write_counters),
    Hook("repro.service.stream_io.read_schedule_stream",
         "service.stream_io.read", wrap_result=_time_epochs),
    Hook("repro.multicore.toolflow.partition_qubits", "multicore.partition",
         ops=_first_len, counters=lambda a, k, r: {"cut": r.cut_weight}),
    Hook("repro.multicore.toolflow.schedule_multicore",
         "multicore.makespan", ops=_first_len),
    Hook(f"{_BENCH}.compile_ops", "sim.compile", ops=lambda a, k, r: len(r)),
    # Simulator work: gate applications, i.e. ops x input lanes (x 2
    # sides for an equivalence check).
    Hook(f"{_BENCH}.verify_reference", "sim.reference",
         ops=lambda a, k, r: r.ops * r.lanes),
    Hook(f"{_BENCH}.verify_equivalent", "sim.equivalent",
         ops=lambda a, k, r: 2 * r.ops * r.lanes,
         counters=lambda a, k, r: {"lanes": r.lanes}),
    # The entry calls' own glue; ops count input-program statements.
    Hook(f"{_BENCH}.compile_and_schedule", "toolflow", ops=_program_arg),
    Hook(f"{_BENCH}.compile_and_schedule_streamed", "toolflow",
         ops=_program_arg),
    Hook(f"{_BENCH}.compile_and_schedule_multicore", "toolflow",
         ops=_program_arg),
    Hook(f"{_BENCH}.execute_result", "toolflow"),
    Hook(f"{_BENCH}.execute_multicore_result", "toolflow"),
    Hook(f"{_BENCH}.execute_schedule_stream", "toolflow"),
)


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    ops: int = 0
    errors: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


class Tracer:
    """Span stack plus per-layer totals for one traced run."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStat] = {l: LayerStat() for l in LAYERS}
        #: Completed spans: ``(id, parent id or 0, name, start, end)``.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: Open spans, innermost last: ``[id, seconds in children]``.
        self._stack: List[List[Any]] = []
        self._next_id = 1
        #: Lazily charged time with no span open (belongs to no span).
        self.top_lazy_s = 0.0

    # -- spans -------------------------------------------------------------

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def call(self, hook: Hook, fn: Callable, args: tuple, kwargs: dict):
        stat = self.layers[hook.layer]
        if hook.wrap_args is not None:
            hook.wrap_args(self, args, kwargs)
        parent = self._stack[-1] if self._stack else None
        frame = [self._new_id(), 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            stat.calls += 1
            stat.self_s += (end - start) - frame[1]
            if parent is not None:
                parent[1] += end - start
            self.spans.append(
                (frame[0], parent[0] if parent else 0, hook.layer, start, end)
            )
        if hook.ops is not None:
            stat.ops += hook.ops(args, kwargs, result)
        if hook.counters is not None:
            for name, value in hook.counters(args, kwargs, result).items():
                stat.counters[name] = stat.counters.get(name, 0) + value
        if hook.wrap_result is not None:
            result = hook.wrap_result(self, result)
        return result

    def run_pass(self, fn: Callable[[], Any]) -> Tuple[float, float, float]:
        """Run one pass under the tracer; returns ``(wall, residual,
        self)`` seconds, where residual is the wall time outside every
        top-level layer span and self is the pass's summed layer self
        time (so ``self + residual == wall`` when the spans nest)."""
        first_span = len(self.spans)
        lazy_before = self.top_lazy_s
        self_before = sum(stat.self_s for stat in self.layers.values())
        start = perf_counter()
        fn()
        end = perf_counter()
        top = sum(
            e - s
            for _sid, parent, _name, s, e in self.spans[first_span:]
            if parent == 0
        ) + (self.top_lazy_s - lazy_before)
        self_s = sum(stat.self_s for stat in self.layers.values())
        self.spans.append((self._new_id(), 0, "pass", start, end))
        return end - start, (end - start) - top, self_s - self_before

    # -- lazily performed work ---------------------------------------------

    def charge(self, layer: str, seconds: float) -> None:
        """Move ``seconds`` of the open span's time to ``layer``."""
        self.layers[layer].self_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds
        else:
            self.top_lazy_s += seconds

    def lazy_iter(
        self, layer: str, items: Iterable, count: Callable[[Any], int]
    ) -> Iterator:
        """Yield ``items``, charging each ``next()`` to ``layer`` and
        ``count(item)`` to its ops."""
        stat = self.layers[layer]
        it = iter(items)
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self.charge(layer, perf_counter() - start)
                return
            except BaseException:
                self.charge(layer, perf_counter() - start)
                stat.errors += 1
                raise
            self.charge(layer, perf_counter() - start)
            stat.ops += count(item)
            yield item

    def lazy_call(self, layer: str, fn: Callable) -> Callable:
        """``fn``, with each call's time charged to ``layer``."""

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.charge(layer, perf_counter() - start)

        return timed

    # -- reporting ---------------------------------------------------------

    def write_chrome(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the spans as Chrome trace-event JSON (``extra`` goes to
        ``otherData``). Lazily charged layers have no spans of their
        own; only their totals show."""
        base = min((s for _, _, _, s, _ in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "bench"}},
        ]
        for sid, parent, name, s, e in sorted(
            self.spans, key=lambda sp: (sp[3], sp[0])
        ):
            events.append(
                {
                    "name": name,
                    "cat": "layer" if name in self.layers else "pass",
                    "ph": "X",
                    "ts": (s - base) * 1e6,
                    "dur": (e - s) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": sid, "parent": parent},
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": extra,
                },
                fh,
            )


def _resolve(hook: Hook) -> Tuple[Any, str]:
    target = hook.target
    if hook.layer not in LAYERS:
        raise HookError(f"hook {target!r}: unknown layer {hook.layer!r}")
    module_name, attr = target.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"hook target {target!r}: {exc}") from None
    if not hasattr(module, attr):
        raise HookError(
            f"hook target {target!r} does not exist; the "
            f"{attr!r} entry point moved or was renamed"
        )
    return module, attr


class installed:
    """Context manager: rebind every hook for ``tracer``, restore on
    exit. All targets are resolved before any is rebound, so a missing
    one leaves the library untouched."""

    def __init__(self, tracer: Tracer, hooks: Iterable[Hook] = HOOKS):
        self.tracer = tracer
        self.hooks = tuple(hooks)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        resolved = [(hook, *_resolve(hook)) for hook in self.hooks]
        for hook, module, attr in resolved:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrapper(self.tracer, hook, original))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _wrapper(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(hook, fn, args, kwargs)

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced
