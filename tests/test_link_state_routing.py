"""Link-state routing, including stale views and the per-generation tree cache."""

import random

from repro.routing import dijkstra, link_state
from repro.routing.dijkstra import shortest_path
from repro.routing.link_state import LinkStateRouting
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.mobility import RandomWaypointMobility
from repro.sim.topology import Position, linear_positions, random_positions


def build(num_nodes=5, update_period=10.0):
    sim = Simulator()
    channel = Channel(linear_positions(num_nodes, 40), radio_range=50.0,
                      rng=random.Random(0), default_quality=LinkQuality.perfect())
    routing = LinkStateRouting(channel, sim, update_period=update_period)
    return sim, channel, routing


class TestLinkStateRouting:
    def test_next_hop_chain(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.next_hop(0, 4) == 1
        assert routing.next_hop(3, 4) == 4
        assert routing.next_hop(2, 0) == 1

    def test_next_hop_to_self(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.next_hop(2, 2) == 2
        assert routing.hops_to(2, 2) == 0

    def test_hops_to_destination(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.hops_to(0, 4) == 4
        assert routing.hops_to(1, 4) == 3

    def test_route_full_path(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.route(0, 4) == [0, 1, 2, 3, 4]

    def test_unreachable_destination(self):
        sim, channel, routing = build()
        routing.start()
        channel.set_position(4, Position(10_000, 0))
        routing.refresh_all_views()
        assert routing.next_hop(0, 4) is None
        assert not routing.is_reachable(0, 4)

    def test_views_lag_topology_until_refresh(self):
        sim, channel, routing = build(update_period=10.0)
        routing.start()
        channel.set_position(4, Position(10_000, 0))
        # The stale view still routes towards the departed node...
        assert routing.next_hop(0, 4) == 1
        # ...but ground truth disagrees.
        assert routing.true_hops(0, 4) is None
        sim.run(until=11.0)
        assert routing.next_hop(0, 4) is None

    def test_view_updates_counted(self):
        sim, channel, routing = build(update_period=5.0)
        routing.start()
        before = routing.view_updates
        sim.run(until=26.0)
        assert routing.view_updates >= before + 5


class TestTreePerGeneration:
    """One shortest-path tree per (node, view generation), built on demand."""

    def test_one_traversal_per_node_and_generation(self, monkeypatch):
        runs = []
        real = dijkstra.shortest_path_tree

        def counting(graph, source):
            runs.append(source)
            return real(graph, source)

        # Both bindings, so a traversal through any helper is counted.
        monkeypatch.setattr(link_state, "shortest_path_tree", counting)
        monkeypatch.setattr(dijkstra, "shortest_path_tree", counting)
        sim, channel, routing = build()
        routing.start()
        for _ in range(3):
            assert routing.next_hop(0, 4) == 1
            assert routing.hops_to(0, 3) == 3
            assert routing.is_reachable(0, 2)
        assert runs == [0]
        # An unchanged snapshot keeps the tree; a changed one drops it.
        routing.refresh_all_views()
        assert routing.hops_to(0, 4) == 4
        assert runs == [0]
        channel.set_position(4, Position(10_000, 0))
        routing.refresh_all_views()
        assert routing.hops_to(0, 4) is None
        assert routing.next_hop(0, 3) == 1
        # Nodes 1-4 never routed, so they never ran a traversal.
        assert runs == [0, 0]

    def test_lazy_answers_use_the_refresh_time_view(self):
        sim = Simulator()
        channel = Channel(random_positions(12, 200.0, random.Random(4)), radio_range=60.0,
                          rng=random.Random(5), default_quality=LinkQuality.perfect())
        routing = LinkStateRouting(channel, sim, update_period=5.0)
        refreshed = []
        adopt = routing.refresh_all_views

        def refresh_and_copy():
            adopt()
            refreshed.append({node: set(neighbors) for node, neighbors in channel.connectivity().items()})

        routing.refresh_all_views = refresh_and_copy
        mobility = RandomWaypointMobility(channel, random.Random(6), speed=5.0, mean_leg_distance=60.0,
                                          mean_pause=2.0, field_size=200.0)
        mobility.start(sim)
        routing.start()
        moved = []

        def probe():
            # Answered lazily, after the nodes have moved on since the refresh.
            view = refreshed[-1]
            moved.append(channel.connectivity() != view)
            for node in range(channel.num_nodes):
                for destination in range(channel.num_nodes):
                    path = shortest_path(view, node, destination)
                    expected_hop = None if path is None else (path[1] if len(path) > 1 else node)
                    assert routing.next_hop(node, destination) == expected_hop
                    assert routing.hops_to(node, destination) == (None if path is None else len(path) - 1)

        for period in range(20):
            sim.schedule_at(period * 5.0 + 3.5, probe)
        sim.run(until=100.0)
        assert len(moved) == 20 and sum(moved) >= 5
