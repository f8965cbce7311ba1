"""Random-waypoint mobility."""

import random

from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.mobility import RandomWaypointMobility, StaticMobility
from repro.sim.topology import linear_positions, random_positions


def _make_channel(num_nodes=5, field=200.0, seed=0):
    rng = random.Random(seed)
    positions = random_positions(num_nodes, field, rng)
    return Channel(positions, radio_range=60.0, rng=random.Random(seed + 1),
                   default_quality=LinkQuality.perfect())


def test_static_mobility_does_nothing():
    sim = Simulator()
    StaticMobility().start(sim)
    assert sim.pending_events == 0
    assert StaticMobility().describe() == "static"


def test_nodes_move_over_time():
    sim = Simulator()
    channel = _make_channel()
    before = [channel.position_of(i) for i in range(channel.num_nodes)]
    mobility = RandomWaypointMobility(channel, random.Random(3), speed=5.0,
                                      mean_pause=1.0, field_size=200.0)
    mobility.start(sim)
    sim.run(until=300.0)
    after = [channel.position_of(i) for i in range(channel.num_nodes)]
    moved = sum(1 for b, a in zip(before, after, strict=True) if b != a)
    assert moved >= channel.num_nodes - 1


def test_positions_stay_in_field():
    sim = Simulator()
    channel = _make_channel(field=100.0)
    mobility = RandomWaypointMobility(channel, random.Random(5), speed=10.0,
                                      mean_pause=0.5, field_size=100.0)
    mobility.start(sim)
    sim.run(until=500.0)
    for i in range(channel.num_nodes):
        position = channel.position_of(i)
        assert 0.0 <= position.x <= 100.0
        assert 0.0 <= position.y <= 100.0


def test_slow_nodes_move_less_than_fast_nodes():
    def total_displacement(speed, seed=11):
        sim = Simulator()
        channel = Channel(linear_positions(4, 40), radio_range=50.0,
                          rng=random.Random(0), default_quality=LinkQuality.perfect())
        before = [channel.position_of(i) for i in range(4)]
        mobility = RandomWaypointMobility(channel, random.Random(seed), speed=speed,
                                          mean_pause=10.0, field_size=200.0)
        mobility.start(sim)
        sim.run(until=200.0)
        return sum(before[i].distance_to(channel.position_of(i)) for i in range(4))

    assert total_displacement(5.0) > total_displacement(0.1)


def test_describe_mentions_speed():
    channel = _make_channel()
    mobility = RandomWaypointMobility(channel, random.Random(1), speed=2.5)
    assert "2.5" in mobility.describe()
