"""From-scratch graph substrate.

The algorithms in :mod:`repro.core` need: BFS hop distances over the
candidate-location graph, minimum spanning trees over a hop metric, and
shortest-path Steiner expansion of an MST (the connection step of
Section III-E).  networkx is deliberately *not* used here — it serves only
as a test oracle.
"""

from repro.graphs.adjacency import Graph
from repro.graphs.bfs import (
    bfs_hops,
    connected_components,
    is_connected,
    multi_source_hops,
    shortest_hop_path,
)
from repro.graphs.mst import minimum_spanning_tree
from repro.graphs.steiner import steiner_connect

__all__ = [
    "Graph",
    "bfs_hops",
    "connected_components",
    "is_connected",
    "multi_source_hops",
    "shortest_hop_path",
    "minimum_spanning_tree",
    "steiner_connect",
]
