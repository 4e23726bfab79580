"""Reference (pre-plan) flattening front end: the oracle.

This is the whole-program rewrite the toolflow's front end replaced:
optimize, then decompose every module, then flatten callees-first in
its own threshold loop, inlining each call site of an already-flattened
callee with :func:`inline_call`. The pipeline now decides once
(:func:`repro.passes.stream.plan_flatten`) and takes every leaf body
from the lazy expander (:func:`repro.passes.stream.leaf_stream`).

The flattener below is kept verbatim (``_rename``, ``inline_call``,
``_flatten_module`` and the threshold loop, here named
:func:`flatten_program_reference`, with the ``FlattenResult`` it
returned) as the executable specification the front end is checked
against. :func:`front_end_reference` chains it the way the old front
end did and returns what :func:`repro.toolflow._front_end` returns, so
:func:`tests.oracle.reference_swapped` can swap it in. One difference
is by design: the rewrite kept every module, including the callees
that flattening leaves unreachable, while the front end builds its
program from the reachable modules only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.module import Module, Program
from repro.core.operation import CallSite, Operation, Statement
from repro.core.qubits import Qubit
from repro.passes.decompose import DecomposeConfig, decompose_program
from repro.passes.optimize import optimize_program
from repro.passes.resource import total_gate_counts

__all__ = [
    "FlattenResult",
    "flatten_program_reference",
    "front_end_reference",
    "inline_call",
]


class FlattenResult:
    """Outcome of a flattening run.

    Attributes:
        program: the rewritten program.
        flattened: names of modules that were flattened into leaves.
        percent_flattened: share of reachable modules flattened or
            already leaves (the quantity Figure 5's caption reports).
    """

    def __init__(self, program: Program, flattened: List[str]):
        self.program = program
        self.flattened = flattened
        reachable = program.reachable()
        leaves = sum(
            1 for name in reachable if program.module(name).is_leaf
        )
        self.percent_flattened = 100.0 * leaves / len(reachable)


def _rename(q: Qubit, mapping: Dict[Qubit, Qubit], prefix: str) -> Qubit:
    """Map a callee-body qubit to the caller's namespace: formals map to
    actuals, locals get a unique per-instance register prefix."""
    mapped = mapping.get(q)
    if mapped is None:
        mapped = Qubit(f"{prefix}${q.register}", q.index)
        mapping[q] = mapped
    return mapped


def inline_call(
    call: CallSite, callee: Module, instance: str
) -> List[Statement]:
    """Expand one call site into the callee's statements.

    The callee must be a leaf. Formal parameters are substituted with the
    actual arguments; callee locals are renamed with a unique ``instance``
    prefix so that two inlined instances never alias. Iterated calls
    repeat the (identically-renamed) body — locals are reused across
    iterations, exactly as the called procedure would reuse them.
    """
    if not callee.is_leaf:
        raise ValueError(
            f"cannot inline non-leaf module {callee.name!r}"
        )
    if len(call.args) != len(callee.params):
        raise ValueError(
            f"arity mismatch inlining {callee.name!r}"
        )
    mapping: Dict[Qubit, Qubit] = dict(zip(callee.params, call.args))
    body_once: List[Statement] = []
    for op in callee.operations():
        new_qubits = tuple(
            _rename(q, mapping, instance) for q in op.qubits
        )
        body_once.append(Operation(op.gate, new_qubits, op.angle))
    return body_once * call.iterations


def _flatten_module(module: Module, program: Program) -> Module:
    """Inline every call in ``module`` (callees must already be leaves)."""
    body: List[Statement] = []
    for idx, stmt in enumerate(module.body):
        if isinstance(stmt, Operation):
            body.append(stmt)
        else:
            callee = program.module(stmt.callee)
            instance = f"{stmt.callee}@{idx}"
            body.extend(inline_call(stmt, callee, instance))
    return Module(module.name, module.params, body)


def flatten_program_reference(program: Program, fth: int) -> FlattenResult:
    """Flatten every module whose expanded gate count is below ``fth``.

    Processes modules callees-first so that by the time a module is
    considered, any callee under the threshold is already a leaf (a
    callee's expanded count never exceeds its caller's, so a module under
    the threshold only calls modules under the threshold).
    """
    totals = total_gate_counts(program)
    current = program
    flattened: List[str] = []
    for name in current.topological_order():
        mod = current.module(name)
        if mod.is_leaf or totals[name] > fth:
            continue
        current = current.with_modules(
            {name: _flatten_module(mod, current)}
        )
        flattened.append(name)
    return FlattenResult(current, flattened)


def front_end_reference(
    program: Program,
    fth: int,
    decompose: bool,
    decompose_config: Optional[DecomposeConfig],
    optimize: bool,
) -> Tuple[Program, FlattenResult, int]:
    """Optimize, decompose and flatten ``program`` as whole-program
    rewrites, in that order; returns the flattened program, the
    :class:`FlattenResult` (which carries ``percent_flattened`` like the
    pipeline's plan) and the entry's expanded gate count."""
    if optimize:
        program = optimize_program(program)[0]
    if decompose:
        program = decompose_program(program, decompose_config)
    flat = flatten_program_reference(program, fth)
    program = flat.program
    return program, flat, total_gate_counts(program)[program.entry]
