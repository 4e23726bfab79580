"""Tests for the core interconnect graph (repro.multicore.topology)."""

import pytest

from repro.multicore.topology import (
    TOPOLOGIES,
    TOPOLOGY_SCHEMA,
    CoreGraph,
    TopologyError,
    parse_topology,
)


class TestFactories:
    def test_line_shape(self):
        g = CoreGraph.line(4)
        assert g.cores == 4
        assert g.name == "line"
        assert len(g.edges) == 3
        assert g.hops(0, 3) == 3
        assert g.diameter == 3

    def test_ring_shape(self):
        g = CoreGraph.ring(6)
        assert len(g.edges) == 6
        # The ring goes both ways: 0 -> 5 is one hop, not five.
        assert g.hops(0, 5) == 1
        assert g.hops(0, 3) == 3
        assert g.diameter == 3

    def test_mesh_shape(self):
        g = CoreGraph.mesh(4)  # 2x2 grid
        assert g.cores == 4
        assert g.hops(0, 3) == 2
        assert g.diameter == 2

    def test_all_to_all_shape(self):
        g = CoreGraph.all_to_all(5)
        assert len(g.edges) == 10
        assert g.diameter == 1
        assert all(
            g.hops(a, b) == 1
            for a in range(5)
            for b in range(5)
            if a != b
        )

    def test_single_core_degenerates(self):
        for factory in (
            CoreGraph.line,
            CoreGraph.ring,
            CoreGraph.mesh,
            CoreGraph.all_to_all,
        ):
            g = factory(1)
            assert g.cores == 1
            assert g.edges == ()
            assert g.diameter == 0

    def test_hops_are_symmetric(self):
        g = CoreGraph.mesh(9)
        for a in range(9):
            assert g.hops(a, a) == 0
            for b in range(9):
                assert g.hops(a, b) == g.hops(b, a)


class TestShortestPath:
    def test_path_length_matches_hops(self):
        g = CoreGraph.mesh(9)
        for a in range(9):
            for b in range(9):
                if a == b:
                    continue
                path = g.shortest_path(a, b)
                assert len(path) == g.hops(a, b)
                # Every step is an actual link, normalized (lo, hi).
                links = {(x, y) for x, y, _w in g.edges}
                for lo, hi in path:
                    assert lo < hi
                    assert (lo, hi) in links

    def test_path_is_deterministic(self):
        g = CoreGraph.ring(8)
        assert g.shortest_path(0, 4) == g.shortest_path(0, 4)


class TestSchema:
    def test_bandwidth_preserved(self):
        g = CoreGraph.line(3, bandwidth=2.0)
        assert g.bandwidth(0, 1) == 2.0
        assert g.bandwidth(1, 0) == 2.0
        doc = g.to_dict()
        assert doc["schema"] == TOPOLOGY_SCHEMA
        assert doc["edges"] == [[0, 1, 2.0], [1, 2, 2.0]]


class TestParse:
    def test_all_names(self):
        for name in TOPOLOGIES:
            g = parse_topology(name, 4, 1.0)
            assert g.cores == 4
            assert g.name == name

    def test_underscore_alias(self):
        g = parse_topology("all_to_all", 3, 1.0)
        assert g.name == "all-to-all"

    def test_unknown_name(self):
        with pytest.raises(TopologyError):
            parse_topology("torus", 4, 1.0)

    def test_bad_cores(self):
        with pytest.raises(TopologyError):
            parse_topology("line", 0, 1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(TopologyError):
            parse_topology("line", 2, 0.0)
