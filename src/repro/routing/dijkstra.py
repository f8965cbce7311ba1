"""Shortest-path computation on connectivity graphs.

The graphs handled here are adjacency mappings ``{node: set(neighbors)}``
as produced by :func:`repro.sim.topology.connectivity_graph` or by
:meth:`repro.sim.channel.Channel.connectivity`.  All links have unit
cost (hop count), matching the paper's use of hop counts for the
remaining-path length in the loss-tolerance computation.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Set, Tuple


Graph = Mapping[int, Set[int]]


def shortest_path_tree(graph: Graph, source: int) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
    """Dijkstra from ``source``: returns (distance, predecessor) maps.

    Unreachable nodes are simply absent from the returned maps.
    """
    if source not in graph:
        raise KeyError(f"source {source} not in graph")
    dist: Dict[int, float] = {source: 0.0}
    prev: Dict[int, Optional[int]] = {source: None}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited: Set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        # repro: allow[DET002] dist is order-independent (unit costs); prev ties are pinned by the heap's (dist, node) pop order, so the lowest-id parent on the previous level wins
        for neighbor in graph.get(node, ()):  # tolerate dangling edges
            candidate = d + 1.0
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return dist, prev


def shortest_path(graph: Graph, source: int, destination: int) -> Optional[List[int]]:
    """Hop-minimal path from ``source`` to ``destination`` (inclusive), or None."""
    if source == destination:
        return [source]
    dist, prev = shortest_path_tree(graph, source)
    if destination not in dist:
        return None
    path = [destination]
    while path[-1] != source:
        parent = prev[path[-1]]
        if parent is None:
            return None
        path.append(parent)
    path.reverse()
    return path


def next_hop_table(prev: Mapping[int, Optional[int]], source: int) -> Dict[int, int]:
    """For every destination in the tree ``prev`` rooted at ``source``, its first hop.

    ``prev`` is the predecessor map :func:`shortest_path_tree` returned
    for ``source``; no graph traversal happens here.
    """
    table: Dict[int, int] = {}
    for destination in prev:
        if destination == source:
            continue
        node = destination
        while prev[node] is not None and prev[node] != source:
            node = prev[node]  # type: ignore[assignment]
        table[destination] = node
    return table
