"""Core interconnect topologies for multi-core Multi-SIMD machines.

The single-core pipeline models one Multi-SIMD(k,d) chip. The 2024-25
multi-core literature (TeleSABRE, arXiv 2505.08928; dependency-aware
multi-core scheduling, arXiv 2607.00469) studies the next level up:
several such cores joined by an EPR-pair teleport interconnect with a
*topology* and a per-link bandwidth. :class:`CoreGraph` is that
interconnect: an undirected connected graph over core indices whose
edges carry an EPR bandwidth (pairs deliverable per teleport round).

Distances are hop counts over unweighted BFS; inter-core teleports are
billed by hop count (a qubit crossing ``h`` links consumes ``h`` EPR
pairs — one per link — and needs ``h`` swap-teleport rounds unless
links pipeline, see :mod:`repro.multicore.makespan`).

The graph exports a schema-versioned dict (``repro.core-graph/1``) for
JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Tuple

__all__ = [
    "TOPOLOGY_SCHEMA",
    "TOPOLOGIES",
    "TopologyError",
    "CoreGraph",
    "parse_topology",
]

#: Version tag of the CoreGraph dict layout.
TOPOLOGY_SCHEMA = "repro.core-graph/1"

#: Named factory topologies accepted by the CLI.
TOPOLOGIES = ("line", "ring", "mesh", "all-to-all")


class TopologyError(ValueError):
    """An invalid core graph (bad edge, disconnected, bad name)."""


Link = Tuple[int, int]
Edge = Tuple[int, int, float]


@dataclass(frozen=True)
class CoreGraph:
    """An undirected, connected interconnect over ``cores`` cores.

    Attributes:
        cores: number of cores (>= 1).
        edges: normalized ``(a, b, bandwidth)`` triples with ``a < b``,
            sorted, no duplicates; bandwidth is EPR pairs per teleport
            round on that link.
        name: topology label for reports (``line``/``ring``/``mesh``/
            ``all-to-all``/``custom``).
    """

    cores: int
    edges: Tuple[Edge, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise TopologyError(f"cores must be >= 1, got {self.cores}")
        seen = set()
        for a, b, bw in self.edges:
            if not (0 <= a < b < self.cores):
                raise TopologyError(
                    f"bad edge ({a}, {b}) for {self.cores} core(s) "
                    "(need 0 <= a < b < cores)"
                )
            if (a, b) in seen:
                raise TopologyError(f"duplicate edge ({a}, {b})")
            if not bw > 0:
                raise TopologyError(
                    f"link ({a}, {b}) bandwidth must be positive, got {bw}"
                )
            seen.add((a, b))
        if list(self.edges) != sorted(self.edges):
            raise TopologyError("edges must be sorted")
        hops = self.hop_matrix()
        if any(h < 0 for row in hops for h in row):
            raise TopologyError(
                f"core graph is disconnected ({self.cores} cores, "
                f"{len(self.edges)} links)"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def line(cls, cores: int, bandwidth: float = 1.0) -> "CoreGraph":
        """Cores on a line: ``i -- i+1``."""
        return cls(
            cores=cores,
            edges=tuple(
                (i, i + 1, float(bandwidth)) for i in range(cores - 1)
            ),
            name="line",
        )

    @classmethod
    def ring(cls, cores: int, bandwidth: float = 1.0) -> "CoreGraph":
        """The line closed into a cycle (a 2-core ring is just a line:
        the wrap link would duplicate the only edge)."""
        if cores <= 2:
            line = cls.line(cores, bandwidth)
            return cls(cores=cores, edges=line.edges, name="ring")
        edges = [(i, i + 1, float(bandwidth)) for i in range(cores - 1)]
        edges.append((0, cores - 1, float(bandwidth)))
        return cls(cores=cores, edges=tuple(sorted(edges)), name="ring")

    @classmethod
    def mesh(cls, cores: int, bandwidth: float = 1.0) -> "CoreGraph":
        """A near-square 2D grid: ``rows`` is the largest divisor of
        ``cores`` not exceeding ``sqrt(cores)`` (4 -> 2x2, 6 -> 2x3,
        prime counts degenerate to a line)."""
        rows = 1
        r = 1
        while r * r <= cores:
            if cores % r == 0:
                rows = r
            r += 1
        cols = cores // rows
        edges: List[Edge] = []
        for i in range(rows):
            for j in range(cols):
                node = i * cols + j
                if j + 1 < cols:
                    edges.append((node, node + 1, float(bandwidth)))
                if i + 1 < rows:
                    edges.append((node, node + cols, float(bandwidth)))
        return cls(cores=cores, edges=tuple(sorted(edges)), name="mesh")

    @classmethod
    def all_to_all(cls, cores: int, bandwidth: float = 1.0) -> "CoreGraph":
        """Every core directly linked to every other (hop distance 1)."""
        return cls(
            cores=cores,
            edges=tuple(
                (a, b, float(bandwidth))
                for a in range(cores)
                for b in range(a + 1, cores)
            ),
            name="all-to-all",
        )

    # -- shape --------------------------------------------------------

    def neighbors(self, core: int) -> List[int]:
        """Adjacent cores, ascending (the BFS tie-break order)."""
        out = [b for a, b, _ in self.edges if a == core]
        out += [a for a, b, _ in self.edges if b == core]
        return sorted(out)

    def bandwidth(self, a: int, b: int) -> float:
        """Bandwidth of the direct link ``a -- b``."""
        if a > b:
            a, b = b, a
        for x, y, bw in self.edges:
            if (x, y) == (a, b):
                return bw
        raise TopologyError(f"no link between cores {a} and {b}")

    def hop_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """All-pairs hop distances via BFS (-1 = unreachable)."""
        return _hop_matrix(self)

    def hops(self, a: int, b: int) -> int:
        return self.hop_matrix()[a][b]

    @property
    def diameter(self) -> int:
        """Largest hop distance between any two cores."""
        return max((h for row in self.hop_matrix() for h in row), default=0)

    def shortest_path(self, a: int, b: int) -> List[Link]:
        """The links of one shortest ``a -> b`` route, as normalized
        ``(lo, hi)`` pairs in traversal order. Deterministic: BFS visits
        neighbors ascending, so the route is the lexicographically
        smallest shortest path."""
        return list(_shortest_path(self, a, b))

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TOPOLOGY_SCHEMA,
            "name": self.name,
            "cores": self.cores,
            "edges": [[a, b, bw] for a, b, bw in self.edges],
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({self.cores})"


@lru_cache(maxsize=256)
def _hop_matrix(graph: CoreGraph) -> Tuple[Tuple[int, ...], ...]:
    adjacency = {c: graph.neighbors(c) for c in range(graph.cores)}
    rows: List[Tuple[int, ...]] = []
    for start in range(graph.cores):
        dist = [-1] * graph.cores
        dist[start] = 0
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for nb in adjacency[node]:
                    if dist[nb] < 0:
                        dist[nb] = dist[node] + 1
                        nxt.append(nb)
            frontier = nxt
        rows.append(tuple(dist))
    return tuple(rows)


@lru_cache(maxsize=4096)
def _shortest_path(graph: CoreGraph, a: int, b: int) -> Tuple[Link, ...]:
    if not (0 <= a < graph.cores and 0 <= b < graph.cores):
        raise TopologyError(f"no such cores ({a}, {b})")
    if a == b:
        return ()
    adjacency = {c: graph.neighbors(c) for c in range(graph.cores)}
    parent: Dict[int, int] = {a: a}
    frontier = [a]
    while frontier and b not in parent:
        nxt: List[int] = []
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in parent:
                    parent[nb] = node
                    nxt.append(nb)
        frontier = nxt
    if b not in parent:
        raise TopologyError(f"cores {a} and {b} are not connected")
    route: List[int] = [b]
    while route[-1] != a:
        route.append(parent[route[-1]])
    route.reverse()
    return tuple(
        (min(u, v), max(u, v)) for u, v in zip(route, route[1:])
    )


def parse_topology(
    name: str, cores: int, link_bw: float = 1.0
) -> CoreGraph:
    """Build a named topology from CLI/sweep spellings.

    Accepts the names in :data:`TOPOLOGIES` (``all_to_all`` is
    tolerated as an alias of ``all-to-all``).

    Raises:
        TopologyError: unknown name, bad core count, or bad bandwidth.
    """
    key = name.strip().lower().replace("_", "-")
    if key == "line":
        return CoreGraph.line(cores, link_bw)
    if key == "ring":
        return CoreGraph.ring(cores, link_bw)
    if key == "mesh":
        return CoreGraph.mesh(cores, link_bw)
    if key == "all-to-all":
        return CoreGraph.all_to_all(cores, link_bw)
    raise TopologyError(
        f"unknown topology {name!r} (have {', '.join(TOPOLOGIES)})"
    )
