"""Shortest-path routines, cross-checked against networkx."""

import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.routing.dijkstra import next_hop_table, shortest_path, shortest_path_tree
from repro.sim.topology import connectivity_graph, random_positions


LINE = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
SQUARE = {0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}}


def test_path_on_line():
    assert shortest_path(LINE, 0, 3) == [0, 1, 2, 3]


def test_path_to_self():
    assert shortest_path(LINE, 2, 2) == [2]
    assert shortest_path_tree(LINE, 2)[0][2] == 0.0


def test_unreachable_returns_none():
    graph = {0: {1}, 1: {0}, 2: set()}
    assert shortest_path(graph, 0, 2) is None
    assert 2 not in shortest_path_tree(graph, 0)[0]


def test_square_has_two_hop_diagonal():
    path = shortest_path(SQUARE, 0, 3)
    assert path[0] == 0 and path[-1] == 3 and len(path) == 3


def test_shortest_path_tree_distances():
    dist, prev = shortest_path_tree(LINE, 0)
    assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    assert prev[3] == 2


@given(
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=0, max_value=500),
    st.randoms(use_true_random=False),
)
def test_tree_tie_break_is_deterministic(num_nodes, seed, shuffler):
    # The contract behind the `repro: allow[DET002]` pragma in dijkstra.py:
    # among equal-cost predecessors the lowest-id parent on the previous
    # level wins, pinned by the heap's (dist, node) pop order and not by
    # how a neighbour set happens to iterate — which is why routing may
    # traverse the channel's own sets without copying them.  Ids are
    # spread by a multiple of every small table size so that they collide
    # in the set's hash table and insertion order changes iteration order.
    rng = random.Random(seed)
    graph = connectivity_graph(random_positions(num_nodes, 120.0, rng), radio_range=60.0)
    stride = 1024
    ascending = {u * stride: [v * stride for v in sorted(neighbors)] for u, neighbors in graph.items()}
    permuted = {u: shuffler.sample(neighbors, len(neighbors)) for u, neighbors in ascending.items()}
    in_order = {u: set(neighbors) for u, neighbors in ascending.items()}
    shuffled = {u: set(neighbors) for u, neighbors in permuted.items()}
    for source in in_order:
        dist, prev = shortest_path_tree(in_order, source)
        assert shortest_path_tree(shuffled, source) == (dist, prev)
        for node, parent in prev.items():
            if parent is not None:
                assert parent == min(u for u in in_order[node] if dist.get(u) == dist[node] - 1)


def test_tree_unknown_source_rejected():
    with pytest.raises(KeyError):
        shortest_path_tree(LINE, 99)


def test_next_hop_table_on_line():
    table = next_hop_table(shortest_path_tree(LINE, 0)[1], 0)
    assert table == {1: 1, 2: 1, 3: 1}
    table = next_hop_table(shortest_path_tree(LINE, 2)[1], 2)
    assert table[0] == 1 and table[3] == 3


def test_next_hop_never_self_and_is_neighbor():
    table = next_hop_table(shortest_path_tree(SQUARE, 0)[1], 0)
    for hop in table.values():
        assert hop != 0
        assert hop in SQUARE[0]


@given(st.integers(min_value=4, max_value=14), st.integers(min_value=0, max_value=500))
def test_path_lengths_match_networkx(num_nodes, seed):
    rng = random.Random(seed)
    positions = random_positions(num_nodes, 120.0, rng)
    graph = connectivity_graph(positions, radio_range=60.0)
    reference = nx.Graph()
    reference.add_nodes_from(graph)
    for u, neighbors in graph.items():
        for v in neighbors:
            reference.add_edge(u, v)
    lengths = dict(nx.shortest_path_length(reference, source=0))
    dist, _ = shortest_path_tree(graph, 0)
    assert dist == {destination: float(hops) for destination, hops in lengths.items()}
    for destination in graph:
        path = shortest_path(graph, 0, destination)
        assert (None if path is None else len(path) - 1) == lengths.get(destination)


def test_next_hop_leads_along_a_shortest_path():
    rng = random.Random(5)
    positions = random_positions(10, 100.0, rng)
    graph = connectivity_graph(positions, radio_range=55.0)
    dist, prev = shortest_path_tree(graph, 0)
    table = next_hop_table(prev, 0)
    assert set(table) == set(dist) - {0}
    for destination, hop in table.items():
        assert hop in graph[0]
        assert shortest_path_tree(graph, hop)[0][destination] == dist[destination] - 1
