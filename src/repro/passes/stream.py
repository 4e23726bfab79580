"""The front end's flattening plan and lazy inliners.

Every toolflow makes the Flattening Threshold decision here, once:
:func:`plan_flatten` picks the modules that become leaves from
hierarchical gate counts (:func:`decomposed_gate_counts` when the
pipeline decomposes), without rewriting any body. Leaf bodies are then
produced by one of two inliners over the same renaming:

* :func:`stream_flatten` walks a module's call tree depth-first and
  emits boxed ops lazily, composing the per-instance qubit renamings
  (formals -> actuals, locals -> ``"{callee}@{idx}$"`` instance
  prefixes, iterated calls replaying the identically-renamed body).
  Only the call stack and one op are live at a time;
* :func:`stream_decompose` lowers each streamed op through
  :func:`repro.passes.decompose.decompose_operation` on the fly.
  Decomposition introduces no new qubits and depends only on
  ``(gate, angle)``, so it commutes with the qubit renaming:
  flatten-then-decompose with post-decompose instance indices equals
  the decompose-then-flatten rewrite that ``tests/oracle`` keeps
  (``tests/test_opstream.py``);
* :func:`leaf_stream` composes the two, and the :class:`LeafStream` it
  returns also carries its hierarchical source, so the same leaf can
  be produced int-coded (:meth:`LeafStream.int_coded`) without boxing
  an ``Operation`` per gate. Each distinct module is decomposed and
  inlined once into an :class:`IntCodedBody` template — gate ids,
  operand slots into its own first-use qubit table, arities, angles.
  A call site splices its callee's template through the frame's qubit
  map (the renaming :func:`stream_flatten` composes, with the same
  post-decompose instance indices), and an iterated call appends the
  spliced arrays ``iterations`` times. The result equals interning the
  boxed stream op by op.
"""

from __future__ import annotations

from array import array
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.module import Module, Program
from ..core.operation import Operation
from ..core.opstream import GeneratorStream, OpStream
from ..core.qubits import Qubit
from .decompose import DecomposeConfig, decompose_operation

__all__ = [
    "stream_flatten",
    "stream_decompose",
    "leaf_stream",
    "LeafStream",
    "IntCodedBody",
    "decomposed_gate_counts",
    "call_multiplicity",
    "FlattenPlan",
    "plan_flatten",
]

_Rename = Callable[[Qubit], Qubit]


def _identity(q: Qubit) -> Qubit:
    return q


def _frame_rename(
    parent: _Rename, instance: str, mapping: Dict[Qubit, Qubit]
) -> _Rename:
    """The qubit renaming one inlined call frame applies.

    A callee-body qubit first maps into the *caller's* namespace
    (formals to the call site's actual arguments, locals to a
    ``"{instance}$"``-prefixed register), and the caller's own frame
    then applies its renaming on top: parent-after-frame, which is what
    inlining callees-first into already-flattened callers composes.
    """
    cache: Dict[Qubit, Qubit] = {}

    def rename(q: Qubit) -> Qubit:
        out = cache.get(q)
        if out is None:
            caller_q = mapping.get(q)
            if caller_q is None:
                caller_q = Qubit(f"{instance}${q.register}", q.index)
            out = parent(caller_q)
            cache[q] = out
        return out

    return rename


class _Expander:
    """Depth-first lazy inliner: the one boxed inliner, bit-identical
    to the callees-first rewrite in ``tests/oracle/reference_flatten``.

    When ``decompose_config`` is set, the rewrite being reproduced is
    decompose-*then*-flatten: every direct op in a caller body expands
    before flattening, so the ``{callee}@{idx}`` instance tags carry
    *post-decompose* statement indices. The expander
    precomputes that index table per module (prefix sums of decomposed
    op lengths, one shared per-``(gate, angle)`` length cache) without
    materializing any decomposed body. The same lengths mark the modules
    that expand to no op at all (say a lone ``Rz(q, 0)``); a call to one
    is skipped instead of replayed once per iteration.
    """

    def __init__(
        self, program: Program, decompose_config: Optional[DecomposeConfig]
    ):
        self.program = program
        self.synth = (
            decompose_config.synthesizer() if decompose_config else None
        )
        self._length_cache: Dict[Tuple[str, Optional[float]], int] = {}
        self._index_cache: Dict[str, List[int]] = {}
        self._empty_cache: Dict[str, bool] = {}

    def _length(self, op: Operation) -> int:
        """Ops ``op`` lowers to (1 when not decomposing)."""
        if self.synth is None:
            return 1
        key = (op.gate, op.angle)
        n = self._length_cache.get(key)
        if n is None:
            n = self._length_cache[key] = len(
                decompose_operation(op, self.synth)
            )
        return n

    def _indices(self, module: Module) -> Optional[List[int]]:
        if self.synth is None:
            return None
        table = self._index_cache.get(module.name)
        if table is None:
            table = []
            pos = 0
            for stmt in module.body:
                table.append(pos)
                pos += self._length(stmt) if isinstance(stmt, Operation) else 1
            self._index_cache[module.name] = table
        return table

    def _empty(self, module: Module) -> bool:
        """Whether ``module`` expands to no op after decomposition."""
        empty = self._empty_cache.get(module.name)
        if empty is None:
            empty = all(
                self._length(stmt) == 0
                if isinstance(stmt, Operation)
                else self._empty(self.program.module(stmt.callee))
                for stmt in module.body
            )
            self._empty_cache[module.name] = empty
        return empty

    def expand(self, module: Module, rename: _Rename) -> Iterator[Operation]:
        indices = self._indices(module)
        for idx, stmt in enumerate(module.body):
            if isinstance(stmt, Operation):
                if rename is _identity:
                    yield stmt
                else:
                    yield Operation(
                        stmt.gate,
                        tuple(rename(q) for q in stmt.qubits),
                        stmt.angle,
                    )
            else:
                callee = self.program.module(stmt.callee)
                if len(stmt.args) != len(callee.params):
                    raise ValueError(
                        f"arity mismatch inlining {stmt.callee!r}"
                    )
                if self._empty(callee):
                    continue
                inst_idx = idx if indices is None else indices[idx]
                instance = f"{stmt.callee}@{inst_idx}"
                mapping = dict(zip(callee.params, stmt.args))
                frame = _frame_rename(rename, instance, mapping)
                # Iterated calls replay the identically-renamed body:
                # the frame (and its memoized renames) is shared across
                # iterations, exactly like ``body_once * iterations``.
                for _ in range(stmt.iterations):
                    yield from self.expand(callee, frame)


def stream_flatten(
    program: Program,
    module: Optional[str] = None,
    decompose_config: Optional[DecomposeConfig] = None,
    length_hint: Optional[int] = None,
) -> OpStream:
    """Fully inline one module's call tree as a lazy op stream.

    Emits the body :func:`~repro.passes.flatten.flatten_program` gives
    the module when it flattens it (and therefore, by the threshold
    monotonicity argument, all its transitive callees). Pass
    ``decompose_config`` when the ops are decomposed afterwards
    (:func:`leaf_stream`) — instance tags then use post-decompose
    statement indices (see :class:`_Expander`). The call graph is
    acyclic, so full inlining always terminates; only the call stack
    (call-graph depth) and one op are live at a time.
    """
    name = module or program.entry
    mod = program.module(name)

    def factory() -> Iterator[Operation]:
        return _Expander(program, decompose_config).expand(mod, _identity)

    return GeneratorStream(factory, length_hint=length_hint)


def stream_decompose(
    stream: OpStream,
    config: Optional[DecomposeConfig] = None,
    length_hint: Optional[int] = None,
) -> OpStream:
    """Lower a stream to QASM primitives op-by-op.

    Each upstream op expands to its (bounded-size) decomposition list
    before the next is pulled, so memory stays O(1) in the stream
    length. The synthesizer is stateless per ``(gate, angle)``, so
    replay determinism is preserved.
    """
    cfg = config or DecomposeConfig()

    def factory() -> Iterator[Operation]:
        synth = cfg.synthesizer()
        for op in stream:
            yield from decompose_operation(op, synth)

    return GeneratorStream(factory, length_hint=length_hint)


def decomposed_gate_counts(
    program: Program, config: Optional[DecomposeConfig] = None
) -> Dict[str, int]:
    """Post-decompose expanded gate count of each reachable module.

    Equals ``total_gate_counts(decompose_program(program, config))``
    without building the decomposed program: per-module direct ops are
    decomposed one at a time (their expansion length depends only on
    ``(gate, angle)``, so it is cached), and call sites multiply callee
    totals exactly as the hierarchical estimator does.
    """
    synth = (config or DecomposeConfig()).synthesizer()
    length_cache: Dict[Tuple[str, Optional[float]], int] = {}
    totals: Dict[str, int] = {}
    for name in program.topological_order():
        mod = program.module(name)
        count = 0
        for stmt in mod.body:
            if isinstance(stmt, Operation):
                key = (stmt.gate, stmt.angle)
                n = length_cache.get(key)
                if n is None:
                    n = length_cache[key] = len(
                        decompose_operation(stmt, synth)
                    )
                count += n
            else:
                count += stmt.iterations * totals[stmt.callee]
        totals[name] = count
    return totals


def call_multiplicity(program: Program, target: str) -> int:
    """How many times ``target``'s body executes per run of the entry.

    Sums ``iterations`` products over every call path from the entry —
    the number a spec's reference function must compose when verifying
    a kernel leaf against the whole-program semantics. Returns 1 when
    ``target`` is the entry itself and 0 when it is unreachable.
    """
    if target not in program:
        raise KeyError(f"no module named {target!r}")
    memo: Dict[str, int] = {target: 1}

    def visit(name: str) -> int:
        cached = memo.get(name)
        if cached is not None:
            return cached
        total = sum(
            call.iterations * visit(call.callee)
            for call in program.module(name).calls()
        )
        memo[name] = total
        return total

    return visit(program.entry)


class FlattenPlan:
    """The flattening decisions, computed without rewriting any body:
    the one place the Flattening Threshold is applied.

    Attributes:
        flattened: names flattened into leaves, in topological order
            (callees a flattened caller orphans included).
        leaves: every module that is a leaf *after* flattening and still
            reachable from the entry (flattening a module orphans its
            callees).
        reachable: modules reachable after flattening.
        order: post-flatten topological order (callees first) over
            ``reachable``.
        percent_flattened: the Figure 5 caption quantity —
            ``100 * len(leaves) / len(reachable)``.
    """

    def __init__(self, program: Program, totals: Dict[str, int], fth: int):
        flattened: List[str] = []
        flattened_set: Set[str] = set()
        for name in program.topological_order():
            mod = program.module(name)
            if mod.is_leaf or totals[name] > fth:
                continue
            flattened.append(name)
            flattened_set.add(name)
        # Post-flatten reachability: a flattened module has no calls
        # left, so its callees drop out of the reachable set unless
        # another (unflattened) caller keeps them live.
        reachable: Set[str] = set()
        order: List[str] = []

        def visit(name: str) -> None:
            if name in reachable:
                return
            reachable.add(name)
            if name not in flattened_set:
                for callee in sorted(program.module(name).callees()):
                    visit(callee)
            order.append(name)

        visit(program.entry)
        self.flattened = flattened
        self.reachable = reachable
        self.order = order
        self.leaves = {
            name
            for name in reachable
            if name in flattened_set or program.module(name).is_leaf
        }
        self.percent_flattened = 100.0 * len(self.leaves) / len(reachable)

    def is_leaf_after(self, name: str) -> bool:
        return name in self.leaves


def plan_flatten(
    program: Program, totals: Dict[str, int], fth: int
) -> FlattenPlan:
    """Plan which modules become leaves under threshold ``fth``, given
    the expanded ``totals`` the decision is based on (post-decompose
    counts when the pipeline decomposes first). Every toolflow and
    :func:`~repro.passes.flatten.flatten_program` decide through this
    plan."""
    return FlattenPlan(program, totals, fth)


#: Limits of the int-coded encoding: gate ids are ``array('H')``
#: entries, op ids ``array('i')`` entries.
_MAX_GATES = 2**16
_MAX_OPS = 2**31 - 1


class IntCodedBody:
    """A fully inlined op sequence as int-coded arrays.

    Gate names and qubits are interned in first-use order (program
    order, operand order). Op ``i`` is gate ``gate_names[gate_ids[i]]``
    on ``arity[i]`` operands, whose qubit ids are the next ``arity[i]``
    entries of ``op_q``; ``angles`` maps op ids to rotation angles.
    Every O(ops) buffer is an ``array``.
    """

    __slots__ = (
        "gate_names",
        "gate_ids",
        "qubits",
        "op_q",
        "arity",
        "angles",
        "_gate_table",
        "_qubit_table",
    )

    def __init__(self) -> None:
        self.gate_names: List[str] = []
        self.gate_ids = array("H")
        self.qubits: List[Qubit] = []
        self.op_q = array("i")
        self.arity = array("B")
        self.angles: Dict[int, float] = {}
        self._gate_table: Dict[str, int] = {}
        self._qubit_table: Dict[Qubit, int] = {}

    def __len__(self) -> int:
        return len(self.gate_ids)

    def gate_id(self, gate: str) -> int:
        gid = self._gate_table.get(gate)
        if gid is None:
            gid = len(self.gate_names)
            if gid >= _MAX_GATES:
                raise OverflowError(
                    f"more than {_MAX_GATES} distinct gate names"
                )
            self._gate_table[gate] = gid
            self.gate_names.append(gate)
        return gid

    def qubit_id(self, q: Qubit) -> int:
        qid = self._qubit_table.get(q)
        if qid is None:
            qid = self._qubit_table[q] = len(self.qubits)
            self.qubits.append(q)
        return qid

    def _check_length(self, count: int) -> None:
        if len(self) + count >= _MAX_OPS:
            raise OverflowError("leaf exceeds 2^31-1 operations")

    def extend_ops(self, ops: Sequence[Operation]) -> None:
        """Intern and append boxed ops."""
        self._check_length(len(ops))
        n = len(self)
        get_gate = self._gate_table.get
        get_qubit = self._qubit_table.get
        gate_ids, op_q, arity = self.gate_ids, self.op_q, self.arity
        for op in ops:
            gid = get_gate(op.gate)
            gate_ids.append(self.gate_id(op.gate) if gid is None else gid)
            qubits = op.qubits
            for q in qubits:
                qid = get_qubit(q)
                op_q.append(self.qubit_id(q) if qid is None else qid)
            arity.append(len(qubits))
            if op.angle is not None:
                self.angles[n] = op.angle
            n += 1

    def repeats_operand(self, qmap: Sequence[int]) -> bool:
        """Whether some op names one qubit twice once its operand slots
        are mapped through ``qmap``."""
        j = 0
        op_q = self.op_q
        for a in self.arity:
            if a > 1 and len({qmap[s] for s in op_q[j : j + a]}) < a:
                return True
            j += a
        return False

    def splice(
        self, body: "IntCodedBody", qmap: Sequence[int], iterations: int
    ) -> None:
        """Append ``body`` ``iterations`` times, its qubit ``s`` mapped
        to this body's qubit ``qmap[s]`` (already interned). The body is
        mapped once; each iteration appends that one copy in place."""
        if not len(body):
            return
        self._check_length(iterations * len(body))
        gmap = [self.gate_id(g) for g in body.gate_names]
        seg_q = array("i", map(qmap.__getitem__, body.op_q))
        seg_g = array("H", map(gmap.__getitem__, body.gate_ids))
        n0 = len(self)
        for _ in range(iterations):
            self.op_q.extend(seg_q)
            self.gate_ids.extend(seg_g)
            self.arity.extend(body.arity)
        if body.angles:
            m = len(body)
            for k in range(iterations):
                base = n0 + k * m
                for j, angle in body.angles.items():
                    self.angles[base + j] = angle


class _Templates:
    """Each reachable module's decomposed, fully inlined body, built
    once in the module's own qubit namespace and spliced at every call
    site — the int-coded counterpart of :class:`_Expander`.

    A frame mapping two operands of one op onto one qubit raises
    ``ValueError``, as does an arity mismatch;
    :meth:`LeafStream.int_coded` then defers to the boxed stream,
    which raises the boxed path's own error at the first offending op.
    Every
    decomposition rule touches each pair of its gate's operands in one
    output op, so a repeated operand after decomposition is exactly a
    repeated operand before it (``tests/test_stream_sched.py``).
    """

    def __init__(
        self, program: Program, decompose_config: Optional[DecomposeConfig]
    ):
        self.program = program
        self.synth = (
            decompose_config.synthesizer() if decompose_config else None
        )
        self._bodies: Dict[str, IntCodedBody] = {}

    def body(self, name: str) -> IntCodedBody:
        out = self._bodies.get(name)
        if out is None:
            out = self._inline(self.program.module(name))
            self._bodies[name] = out
        return out

    def _inline(self, module: Module) -> IntCodedBody:
        out = IntCodedBody()
        pos = 0  # statement index in the decomposed body: the instance tag
        for stmt in module.body:
            if isinstance(stmt, Operation):
                ops = (
                    [stmt]
                    if self.synth is None
                    else decompose_operation(stmt, self.synth)
                )
                out.extend_ops(ops)
                pos += len(ops)
                continue
            callee = self.program.module(stmt.callee)
            if len(stmt.args) != len(callee.params):
                raise ValueError(f"arity mismatch inlining {stmt.callee!r}")
            body = self.body(stmt.callee)
            mapping = dict(zip(callee.params, stmt.args))
            instance = f"{stmt.callee}@{pos}"
            qmap = [
                out.qubit_id(
                    mapping[q]
                    if q in mapping
                    else Qubit(f"{instance}${q.register}", q.index)
                )
                for q in body.qubits
            ]
            if len(set(qmap)) < len(qmap) and body.repeats_operand(qmap):
                raise ValueError(
                    f"a call to {stmt.callee!r} repeats an operand"
                )
            out.splice(body, qmap, stmt.iterations)
            pos += 1
        return out


class LeafStream(GeneratorStream):
    """The boxed op stream of one leaf (what :func:`leaf_stream`
    returns), carrying the hierarchical source it expands so the same
    leaf can also be produced int-coded."""

    def __init__(
        self,
        program: Program,
        name: str,
        decompose_config: Optional[DecomposeConfig],
        length_hint: Optional[int] = None,
    ):
        boxed = stream_flatten(program, name, decompose_config)
        if decompose_config is not None:
            boxed = stream_decompose(boxed, decompose_config)
        super().__init__(boxed.__iter__, length_hint=length_hint)
        self.program = program
        self.name = name
        self.decompose_config = decompose_config

    def int_coded(self) -> Optional[IntCodedBody]:
        """The leaf as an :class:`IntCodedBody`, equal to interning
        this stream's ops in order; ``None`` when expanding it raises,
        so the caller ingests the boxed stream and meets that stream's
        own error. Builds no ``Operation`` per gate, only one per
        decomposed op of each distinct module."""
        try:
            return _Templates(self.program, self.decompose_config).body(
                self.name
            )
        except ValueError:
            return None


def leaf_stream(
    program: Program,
    name: str,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    length_hint: Optional[int] = None,
) -> LeafStream:
    """The post-pipeline body of one (possibly flattened) leaf, lazily.

    Composes :func:`stream_flatten` with :func:`stream_decompose` —
    bit-identical to the decompose-then-flatten body of that leaf (the
    two orders commute; see the module docstring). Every toolflow
    takes its leaf bodies from here; the returned stream can also
    produce the leaf int-coded (:meth:`LeafStream.int_coded`).
    """
    cfg = (decompose_config or DecomposeConfig()) if decompose else None
    return LeafStream(program, name, cfg, length_hint=length_hint)
