"""Breadth-first search utilities: hop distances, shortest hop paths,
connectivity.

Hop distances drive both matroid ``M2`` (how far a node is from the anchor
set, Section III-C) and the edge weights of the connection graph ``G'_j``
(Section III-E).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.graphs.adjacency import Graph

UNREACHABLE = -1
"""Marker for nodes with no path from the source set."""


def bfs_hops(graph: Graph, source: int) -> list:
    """Hop distance from ``source`` to every node (-1 if unreachable)."""
    return multi_source_hops(graph, [source])


def all_pairs_hops(graph: Graph) -> np.ndarray:
    """All-pairs hop distances as an ``(n, n)`` ``int16`` matrix whose row
    ``v`` equals :func:`bfs_hops` from ``v`` (``UNREACHABLE`` = -1).

    Every source's search advances one level per step, all at once: the
    next frontier is the float32 product of the frontier indicator rows
    with the adjacency matrix, minus what is already reached.  The
    products count neighbours, far below 2**24, so they are exact.
    """
    n = graph.num_nodes
    adjacency = np.zeros((n, n), dtype=np.float32)
    for u in range(n):
        adjacency[u, graph.neighbours(u)] = 1.0
    hops = np.full((n, n), UNREACHABLE, dtype=np.int16)
    seen = np.eye(n, dtype=bool)
    frontier = seen
    depth = 0
    while frontier.any():
        hops[frontier] = depth
        depth += 1
        frontier = (frontier.astype(np.float32) @ adjacency > 0) & ~seen
        seen = seen | frontier
    return hops


def multi_source_hops(graph: Graph, sources: Iterable) -> list:
    """Hop distance from the nearest of ``sources`` to every node.

    This is exactly the ``d_l`` of Section III-C when ``sources`` is the
    anchor set {v*_1..v*_s}.
    """
    dist = [UNREACHABLE] * graph.num_nodes
    queue: deque = deque()
    for s in sources:
        if not (0 <= s < graph.num_nodes):
            raise IndexError(f"source {s} outside graph")
        if dist[s] == UNREACHABLE:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbours(u):
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def shortest_hop_path(graph: Graph, source: int, target: int) -> "list | None":
    """One shortest path (list of nodes, inclusive) or None if disconnected."""
    if source == target:
        return [source]
    parent = [UNREACHABLE] * graph.num_nodes
    dist = [UNREACHABLE] * graph.num_nodes
    dist[source] = 0
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbours(u):
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None


def connected_components(graph: Graph) -> list:
    """All connected components as lists of nodes (each sorted)."""
    seen = [False] * graph.num_nodes
    components = []
    for start in range(graph.num_nodes):
        if seen[start]:
            continue
        comp = []
        queue: deque = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.neighbours(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(sorted(comp))
    return components


def is_connected(graph: Graph, nodes: "Iterable | None" = None) -> bool:
    """Whether the graph (or the induced subgraph on ``nodes``) is connected.

    An empty node set and a single node both count as connected.
    """
    if nodes is None:
        if graph.num_nodes <= 1:
            return True
        return len(connected_components(graph)) == 1
    node_set = set(nodes)
    if len(node_set) <= 1:
        return True
    start = next(iter(node_set))
    seen = {start}
    queue: deque = deque([start])
    while queue:
        u = queue.popleft()
        for v in graph.neighbours(u):
            if v in node_set and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(node_set)
