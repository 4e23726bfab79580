"""Dependence DAG construction and longest-path analyses.

Because of the no-cloning theorem, *any* shared operand between two
operations creates a data dependency (Section 3.1.1 of the paper): there
is no read/write distinction, so the operations touching a given qubit
form a strict chain in program order. The DAG therefore has one edge from
each operation to the next operation on each of its operands.

The DAG also provides the longest-path machinery used by LPFS
(Section 4.2): node *heights* (longest weighted path from the node to any
sink) are static under scheduler consumption — removing already-scheduled
nodes never changes the height of an unscheduled node, because all
descendants of an unscheduled node are themselves unscheduled. LPFS'
``getNextLongestPath`` exploits this by greedily following maximum-height
successors.

Construction is a single O(V+E) pass over the statement list with a
per-qubit last-writer map; the heights/depths/slack analyses are
computed once and memoized (they are static for a given DAG, and the
schedulers consult slack per ready-set decision). The pre-optimization
construction is kept in ``tests/oracle/`` and produces identical
``preds``/``succs`` arrays — ``tests/test_differential.py`` checks that
on generated programs.

:meth:`DependenceDAG.columns` is the int-coded view the scheduler and
movement kernels read: interned gate names and qubits plus CSR operand
and successor tables, in the layout of
:class:`repro.sched.stream.StreamColumns` but backed by plain lists.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

from .operation import Operation, Statement
from .qubits import Qubit

__all__ = ["DependenceDAG", "DAGColumns"]


def _operands(stmt: Statement) -> Tuple[Qubit, ...]:
    return stmt.qubits if isinstance(stmt, Operation) else stmt.args


def _build_edges_fast(
    statements: List[Statement],
) -> Tuple[List[List[int]], List[List[int]]]:
    """Single-pass edge construction with a per-qubit last-writer map.

    Operations carry 1-3 operands, so direct-predecessor lists are
    deduplicated inline (an ``in`` test on a <=3 element list) instead
    of through a per-node set + sort.
    """
    n = len(statements)
    preds: List[List[int]] = [[] for _ in range(n)]
    succs: List[List[int]] = [[] for _ in range(n)]
    last_touch: Dict[Qubit, int] = {}
    get_last = last_touch.get
    for i, stmt in enumerate(statements):
        operands = (
            stmt.qubits if stmt.__class__ is Operation else _operands(stmt)
        )
        plist = preds[i]
        for q in operands:
            prev = get_last(q)
            if prev is not None and prev not in plist:
                plist.append(prev)
            last_touch[q] = i
        if len(plist) > 1:
            plist.sort()
        for p in plist:
            succs[p].append(i)
    return preds, succs


class DAGColumns:
    """Int-coded view of a gate-only DAG, in
    :class:`~repro.sched.stream.StreamColumns`' layout.

    Gate names and qubits are interned in first-use order (program
    order, operand order); node ``i``'s operands are
    ``op_q[op_off[i]:op_off[i + 1]]`` and its successors
    ``succ_flat[succ_off[i]:succ_off[i + 1]]``. Lists, not ``array``s:
    a list read returns a stored int, an array read boxes a new one.
    """

    __slots__ = (
        "n",
        "gate_names",
        "gate_ids",
        "qubits",
        "op_q",
        "op_off",
        "succ_flat",
        "succ_off",
    )

    def __init__(
        self, statements: Sequence[Statement], succs: List[List[int]]
    ):
        self.n = len(statements)
        gate_table: Dict[str, int] = {}
        qubit_table: Dict[Qubit, int] = {}
        self.gate_ids: List[int] = []
        self.op_q: List[int] = []
        self.op_off = [0]
        gate_ids, op_q, op_off = self.gate_ids, self.op_q, self.op_off
        for stmt in statements:
            gate_ids.append(gate_table.setdefault(stmt.gate, len(gate_table)))
            for q in stmt.qubits:
                op_q.append(qubit_table.setdefault(q, len(qubit_table)))
            op_off.append(len(op_q))
        self.gate_names: List[str] = list(gate_table)
        self.qubits: List[Qubit] = list(qubit_table)
        self.succ_flat = list(chain.from_iterable(succs))
        self.succ_off = [0, *accumulate(map(len, succs))]


class DependenceDAG:
    """Data-dependence DAG over a statement list.

    Nodes are statement indices ``0..n-1``. Edges point from earlier to
    later statements sharing at least one qubit operand, restricted to
    *adjacent* uses (the chain per qubit), which preserves the full
    transitive dependence relation.

    Attributes:
        statements: the underlying statements, in program order.
        preds: ``preds[i]`` — indices of direct predecessors of node i.
        succs: ``succs[i]`` — indices of direct successors of node i.
        weights: per-node schedule weight (1 for gates by default; the
            coarse scheduler substitutes blackbox lengths).
    """

    def __init__(
        self,
        statements: Sequence[Statement],
        weights: Optional[Sequence[int]] = None,
    ):
        self.statements: List[Statement] = list(statements)
        n = len(self.statements)
        if weights is None:
            self.weights: List[int] = [1] * n
        else:
            if len(weights) != n:
                raise ValueError(
                    f"{len(weights)} weights for {n} statements"
                )
            self.weights = list(weights)
        self.preds, self.succs = _build_edges_fast(self.statements)
        self._heights: Optional[List[int]] = None
        self._depths: Optional[List[int]] = None
        self._slack: Optional[List[int]] = None
        self._columns: Optional[DAGColumns] = None

    # -- basic shape ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.statements)

    @property
    def n(self) -> int:
        return len(self.statements)

    def indegrees(self) -> List[int]:
        """Fresh in-degree array (consumed by list schedulers)."""
        return [len(p) for p in self.preds]

    def sources(self) -> List[int]:
        """Nodes with no predecessors (the paper's ``G.top()``)."""
        return [i for i, p in enumerate(self.preds) if not p]

    def columns(self) -> DAGColumns:
        """The int-coded view the scheduler and movement kernels read
        (gate statements only). Memoized until
        :meth:`release_columns`."""
        if self._columns is None:
            self._columns = DAGColumns(self.statements, self.succs)
        return self._columns

    def release_columns(self) -> None:
        """Drop the memoized :meth:`columns` view (rebuilt on demand)."""
        self._columns = None

    # -- longest-path analyses ------------------------------------------

    def heights(self) -> List[int]:
        """Longest weighted path from each node to any sink, inclusive of
        the node's own weight. Static across scheduler consumption."""
        if self._heights is None:
            n = len(self.statements)
            h = [0] * n
            weights = self.weights
            succs = self.succs
            for i in range(n - 1, -1, -1):
                below = 0
                for s in succs[i]:
                    hs = h[s]
                    if hs > below:
                        below = hs
                h[i] = weights[i] + below
            self._heights = h
        return self._heights

    def depths(self) -> List[int]:
        """Longest weighted path from any source to each node, inclusive
        of the node's own weight (the paper's distance-from-top tag)."""
        if self._depths is None:
            n = len(self.statements)
            d = [0] * n
            weights = self.weights
            preds = self.preds
            for i in range(n):
                above = 0
                for p in preds[i]:
                    dp = d[p]
                    if dp > above:
                        above = dp
                d[i] = weights[i] + above
            self._depths = d
        return self._depths

    def critical_path_length(self) -> int:
        """Weighted length of the longest dependence chain."""
        return max(self.depths(), default=0)

    # -- misc -------------------------------------------------------------

    def qubit_chains(self) -> Dict[Qubit, List[int]]:
        """For each qubit, the ordered node indices touching it."""
        chains: Dict[Qubit, List[int]] = {}
        for i, stmt in enumerate(self.statements):
            for q in _operands(stmt):
                chains.setdefault(q, []).append(i)
        return chains

    def slack(self) -> List[int]:
        """Per-node slack: ``critical_path - (depth + height - weight)``.

        Zero for nodes on a critical path; larger for nodes whose
        scheduling can be deferred. Used by RCP's priority term.
        Memoized: slack is static for a given DAG.
        """
        if self._slack is None:
            cp = self.critical_path_length()
            d, h, w = self.depths(), self.heights(), self.weights
            self._slack = [
                cp - (d[i] + h[i] - w[i]) for i in range(self.n)
            ]
        return self._slack
