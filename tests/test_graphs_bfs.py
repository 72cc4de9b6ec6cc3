"""Tests for BFS hop distances and connectivity, with networkx as oracle."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.adjacency import Graph
from repro.graphs.bfs import (
    UNREACHABLE,
    all_pairs_hops,
    bfs_hops,
    connected_components,
    is_connected,
    multi_source_hops,
    shortest_hop_path,
)


def random_graph(seed: int, n: int, p: float) -> "tuple[Graph, nx.Graph]":
    rng = np.random.default_rng(seed)
    ours = Graph(n)
    theirs = nx.Graph()
    theirs.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                ours.add_edge(i, j)
                theirs.add_edge(i, j)
    return ours, theirs


class TestBfsHops:
    def test_path_graph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_hops(g, 0) == [0, 1, 2, 3]

    def test_unreachable(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert bfs_hops(g, 0) == [0, 1, UNREACHABLE]

    def test_invalid_source(self):
        with pytest.raises(IndexError):
            bfs_hops(Graph(2), 5)

    @given(st.integers(0, 10_000), st.integers(2, 25), st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx(self, seed, n, p):
        ours, theirs = random_graph(seed, n, p)
        dist = bfs_hops(ours, 0)
        expected = nx.single_source_shortest_path_length(theirs, 0)
        for v in range(n):
            if v in expected:
                assert dist[v] == expected[v]
            else:
                assert dist[v] == UNREACHABLE


class TestMultiSourceHops:
    def test_two_sources(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert multi_source_hops(g, [0, 4]) == [0, 1, 2, 1, 0]

    def test_matches_min_of_single_sources(self):
        ours, _ = random_graph(3, 20, 0.15)
        sources = [0, 5, 7]
        multi = multi_source_hops(ours, sources)
        singles = [bfs_hops(ours, s) for s in sources]
        for v in range(20):
            reachable = [d[v] for d in singles if d[v] != UNREACHABLE]
            expected = min(reachable) if reachable else UNREACHABLE
            assert multi[v] == expected


class TestShortestHopPath:
    def test_trivial(self):
        g = Graph(2)
        assert shortest_hop_path(g, 1, 1) == [1]

    def test_disconnected_returns_none(self):
        g = Graph(2)
        assert shortest_hop_path(g, 0, 1) is None

    def test_path_valid_and_shortest(self):
        ours, theirs = random_graph(11, 30, 0.12)
        dist = bfs_hops(ours, 0)
        for target in range(1, 30):
            path = shortest_hop_path(ours, 0, target)
            if dist[target] == UNREACHABLE:
                assert path is None
                continue
            assert path[0] == 0 and path[-1] == target
            assert len(path) == dist[target] + 1
            for a, b in zip(path, path[1:]):
                assert ours.has_edge(a, b)


class TestComponentsAndConnectivity:
    def test_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3], [4]]

    def test_is_connected_full_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert is_connected(g)
        g2 = Graph(3)
        g2.add_edge(0, 1)
        assert not is_connected(g2)

    def test_is_connected_subset(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert is_connected(g, [0, 1, 2])
        assert is_connected(g, [3, 4])
        assert not is_connected(g, [0, 3])
        assert not is_connected(g, [0, 2])  # 1 is not in the subset

    def test_trivial_sets_connected(self):
        g = Graph(3)
        assert is_connected(g, [])
        assert is_connected(g, [2])
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))

    @given(st.integers(0, 10_000), st.integers(1, 20), st.floats(0.0, 0.6))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx_connectivity(self, seed, n, p):
        ours, theirs = random_graph(seed, n, p)
        assert is_connected(ours) == nx.is_connected(theirs)


def _oracle_matrix(graph: Graph) -> np.ndarray:
    """One :func:`bfs_hops` row per node."""
    rows = [bfs_hops(graph, v) for v in range(graph.num_nodes)]
    return np.array(rows, dtype=np.int16).reshape(
        graph.num_nodes, graph.num_nodes
    )


class TestAllPairsHops:
    @given(st.integers(0, 10_000), st.integers(0, 40),
           st.floats(0.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs_rows(self, seed, n, p):
        # Sparse draws leave isolated nodes and several components.
        graph, _ = random_graph(seed, n, p)
        hops = all_pairs_hops(graph)
        assert hops.dtype == np.int16
        assert np.array_equal(hops, _oracle_matrix(graph))

    def test_isolated_and_empty(self):
        assert all_pairs_hops(Graph(0)).shape == (0, 0)
        hops = all_pairs_hops(Graph(3))
        assert hops.tolist() == [
            [0, UNREACHABLE, UNREACHABLE],
            [UNREACHABLE, 0, UNREACHABLE],
            [UNREACHABLE, UNREACHABLE, 0],
        ]

    @pytest.mark.parametrize("name", ["scenario", "dynamic"])
    def test_every_preset_grid(self, name):
        from repro.dynamics.spec import DYNAMIC_PRESETS
        from repro.scenario.spec import PRESETS
        from repro.workload.scenarios import build_scenario

        presets = PRESETS if name == "scenario" else DYNAMIC_PRESETS
        for spec in presets.values():
            config = spec.to_config().with_overrides(num_users=0)
            graph = build_scenario(config, 0).graph
            assert np.array_equal(
                graph.hop_matrix(), _oracle_matrix(graph.location_graph)
            ), spec.name
