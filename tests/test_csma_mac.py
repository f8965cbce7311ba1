"""CSMA/CA MAC variant."""

import random

import pytest

from repro.mac.csma import CsmaMac, SharedMedium
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.stats import NetworkStats
from repro.sim.topology import linear_positions


class FramePacket:
    def __init__(self, flow_id=0):
        self.flow_id = flow_id
        self.size_bits = 6624.0
        self.max_link_attempts = None
        self.energy_used = 0.0
        self.dst = 1
        self.src = 0


def test_shared_medium_counting():
    medium = SharedMedium()
    assert medium.begin_transmission() == 0
    assert medium.begin_transmission() == 1
    assert medium.active_transmitters == 2
    medium.end_transmission()
    medium.end_transmission()
    assert medium.active_transmitters == 0
    assert medium.peak_active == 2


def test_shared_medium_underflow_rejected():
    with pytest.raises(RuntimeError):
        SharedMedium().end_transmission()


def test_csma_delivers_over_perfect_link():
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=LinkQuality.perfect())
    medium = SharedMedium()
    macs = [CsmaMac(i, sim, channel, stats, medium=medium, rng=random.Random(i)) for i in range(2)]
    received = []
    for mac in macs:
        mac.deliver_to_peer = lambda nh, p, f: macs[nh].receive(p, f)
        mac.deliver_upstream = lambda p, f, _m=mac: received.append(_m.node_id)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert received == [1]


def test_collision_probability_grows_with_contention():
    mac = CsmaMac.__new__(CsmaMac)  # only need the arithmetic, not a full instance
    base = 0.2
    one = 1.0 - (1.0 - base) ** 1
    three = 1.0 - (1.0 - base) ** 3
    assert three > one


def test_invalid_collision_base_rejected():
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0))
    with pytest.raises(ValueError):
        CsmaMac(0, sim, channel, stats, medium=SharedMedium(), collision_base=1.5)


def test_network_builder_supports_csma():
    network = Network.linear(4, seed=1, mac_type="csma", link_quality=LinkQuality.perfect())
    assert all(isinstance(node.mac, CsmaMac) for node in network.nodes)


def test_network_config_rejects_unknown_mac_type():
    with pytest.raises(ValueError):
        NetworkConfig(positions=linear_positions(2), mac_type="aloha")


def test_csma_jtp_transfer_end_to_end():
    """JTP still works over the contention-based MAC (paper footnote 3)."""
    from repro.core.connection import open_transfer

    network = Network.linear(4, seed=2, mac_type="csma",
                             link_quality=LinkQuality(good_loss=0.05, bad_loss=0.3, bad_fraction=0.1))
    connection = open_transfer(network, 0, 3, 20_000)
    network.run(400.0)
    assert connection.delivered_fraction == pytest.approx(1.0)


def test_collided_attempt_costs_equal_energy_model():
    # With another transmitter always on the medium and collision_base 1,
    # every attempt collides.  Its tx charge must be bit-equal (==) to the
    # energy model's, and the loop must hold the medium for exactly
    # _service_time(packet), backoff draw included, for both sizes.
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=LinkQuality.perfect())
    medium = SharedMedium()
    medium.begin_transmission()
    mac = CsmaMac(0, sim, channel, stats, medium=medium, rng=random.Random(7), collision_base=1.0)
    twin = CsmaMac(0, Simulator(), channel, NetworkStats(), medium=SharedMedium(), rng=random.Random(7))
    charges, drops = [], []
    record_tx = mac._energy_meter.record_tx
    mac._energy_meter.record_tx = lambda flow, joules: (charges.append(joules), record_tx(flow, joules))
    mac.on_packet_dropped = lambda packet, reason: drops.append((sim.now, reason))
    order = (6624.0, 416.0) * 2
    for nbits in order:
        packet = FramePacket()
        packet.size_bits = nbits
        packet.max_link_attempts = 1
        mac.enqueue(packet, 1)
    sim.run(until=10.0)
    radio = mac.config.energy
    assert mac.collisions == len(order)
    assert charges == [radio.transmit_energy(nbits) for nbits in order]
    # Each collided attempt drops its frame, then holds the loop for one
    # CSMA service time; the twin replays the same rng draws.
    expected, clock = [], 0.0
    for nbits in order:
        expected.append((clock, "link_exhausted"))
        twin._rng.random()  # the collision draw
        packet = FramePacket()
        packet.size_bits = nbits
        clock += twin._service_time(packet)
    assert drops == expected
