"""TDMA MAC: delivery, ARQ, hooks, energy accounting, estimators."""

import random

import pytest

from repro.mac.arq import ArqPolicy
from repro.mac.tdma import LinkContext, MacConfig, TdmaMac
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.stats import NetworkStats
from repro.sim.topology import linear_positions


class FramePacket:
    """Minimal duck-typed packet for MAC-level tests."""

    def __init__(self, flow_id=0, size_bits=6624.0, max_link_attempts=None):
        self.flow_id = flow_id
        self.size_bits = size_bits
        self.max_link_attempts = max_link_attempts
        self.energy_used = 0.0
        self.dst = 1
        self.src = 0


def build_pair(quality=None, mac_config=None):
    """Two nodes in range of each other, fully wired MACs."""
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=quality or LinkQuality.perfect())
    config = mac_config or MacConfig()
    macs = [TdmaMac(i, sim, channel, stats, config=config) for i in range(2)]
    received = []

    def deliver(next_hop, packet, from_node):
        macs[next_hop].receive(packet, from_node)

    for mac in macs:
        mac.deliver_to_peer = deliver
        mac.deliver_upstream = lambda packet, frm, _m=mac: received.append((_m.node_id, packet))
    return sim, stats, macs, received


def test_packet_delivered_over_perfect_link():
    sim, stats, macs, received = build_pair()
    packet = FramePacket()
    assert macs[0].enqueue(packet, 1)
    sim.run(until=5.0)
    assert len(received) == 1
    assert received[0][0] == 1
    assert stats.link_transmissions == 1


def test_energy_charged_to_both_ends():
    sim, stats, macs, received = build_pair()
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    radio = macs[0].config.energy
    assert stats.energy[0].tx_joules == pytest.approx(radio.transmit_energy(6624.0))
    assert stats.energy[1].rx_joules == pytest.approx(radio.receive_energy(6624.0))


def test_packet_energy_used_accumulates():
    sim, stats, macs, received = build_pair()
    packet = FramePacket()
    macs[0].enqueue(packet, 1)
    sim.run(until=5.0)
    assert packet.energy_used > 0


def test_retries_until_attempt_bound():
    quality = LinkQuality(good_loss=1.0, bad_loss=1.0, bad_fraction=0.0)
    sim, stats, macs, received = build_pair(quality=quality)
    drops = []
    macs[0].on_packet_dropped = lambda packet, reason: drops.append(reason)
    macs[0].enqueue(FramePacket(max_link_attempts=3), 1)
    sim.run(until=10.0)
    assert received == []
    assert stats.link_transmissions == 3
    assert drops == ["link_exhausted"]


def test_default_attempts_when_unspecified():
    quality = LinkQuality(good_loss=1.0, bad_loss=1.0, bad_fraction=0.0)
    config = MacConfig(arq=ArqPolicy(default_attempts=2, max_attempts=5))
    sim, stats, macs, received = build_pair(quality=quality, mac_config=config)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=10.0)
    assert stats.link_transmissions == 2


def test_queue_overflow_drops_and_counts():
    config = MacConfig(queue_capacity=2)
    sim, stats, macs, received = build_pair(mac_config=config)
    outcomes = [macs[0].enqueue(FramePacket(), 1) for _ in range(5)]
    assert outcomes.count(False) >= 2
    assert stats.queue_drops >= 2


def test_pre_transmit_hook_can_drop():
    sim, stats, macs, received = build_pair()
    macs[0].pre_transmit_hooks.append(lambda packet, ctx: False)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert received == []
    assert stats.link_transmissions == 0


def test_pre_transmit_hook_receives_link_context():
    sim, stats, macs, received = build_pair()
    contexts = []

    def hook(packet, context):
        contexts.append(context)
        return True

    macs[0].pre_transmit_hooks.append(hook)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert len(contexts) == 1
    assert isinstance(contexts[0], LinkContext)
    assert contexts[0].neighbor == 1
    assert contexts[0].available_rate_pps > 0


def test_no_hook_builds_no_link_context(monkeypatch):
    # TCP and UDP install no pre-transmit hook: the MAC must not build a
    # LinkContext nor ask routing for the remaining hops on their behalf.
    sim, stats, macs, received = build_pair()

    def must_not_run(*args, **kwargs):
        raise AssertionError("hook context built with no pre-transmit hook installed")

    monkeypatch.setattr(macs[0], "link_context", must_not_run)
    macs[0].remaining_hops_fn = must_not_run
    for _ in range(3):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=10.0)
    assert len(received) == 3


def test_hook_context_built_once_per_packet_service(monkeypatch):
    # Every attempt fails, so each packet uses all three of its attempts;
    # the retries must not build (or hand the hook) another context.
    quality = LinkQuality(good_loss=1.0, bad_loss=1.0, bad_fraction=0.0)
    sim, stats, macs, received = build_pair(quality=quality)
    mac = macs[0]
    built = []
    build_context = mac.link_context

    def counting_link_context(neighbor, remaining_hops=None):
        built.append((neighbor, remaining_hops))
        return build_context(neighbor, remaining_hops=remaining_hops)

    monkeypatch.setattr(mac, "link_context", counting_link_context)
    mac.remaining_hops_fn = lambda packet: 4
    seen = []
    mac.pre_transmit_hooks.append(lambda packet, context: seen.append(context) or True)
    for _ in range(2):
        mac.enqueue(FramePacket(max_link_attempts=3), 1)
    sim.run(until=20.0)
    assert stats.link_transmissions == 6
    assert built == [(1, 4), (1, 4)]
    assert len(seen) == 2 and all(context.remaining_hops == 4 for context in seen)


def test_attempt_costs_equal_energy_model():
    # Cached per-size costs must be bit-equal (==, not approx) to the
    # energy model's own expressions, on a cache miss and on a hit.
    sim, stats, macs, received = build_pair()
    radio = macs[0].config.energy
    tx_charges, rx_charges, arrivals = [], [], []
    tx_meter, rx_meter = stats.energy[0], stats.register_node(1)
    record_tx, record_rx = tx_meter.record_tx, rx_meter.record_rx
    tx_meter.record_tx = lambda flow, joules: (tx_charges.append(joules), record_tx(flow, joules))
    rx_meter.record_rx = lambda flow, joules: (rx_charges.append(joules), record_rx(flow, joules))
    macs[0].deliver_to_peer = lambda next_hop, packet, frm: arrivals.append(sim.now)
    order = (6624.0, 416.0) * 2
    for nbits in order:
        macs[0].enqueue(FramePacket(size_bits=nbits), 1)
    sim.run(until=20.0)
    assert tx_charges == [radio.transmit_energy(nbits) for nbits in order]
    assert rx_charges == [radio.receive_energy(nbits) for nbits in order]
    # Each attempt occupies exactly _service_time(packet) of wall clock.
    expected, clock = [], 0.0
    for nbits in order:
        clock += macs[0]._service_time(FramePacket(size_bits=nbits))
        expected.append(clock)
    assert arrivals == expected


def test_post_receive_hook_can_consume():
    sim, stats, macs, received = build_pair()
    macs[1].post_receive_hooks.append(lambda packet, mac: False)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert received == []


def test_packets_serialised_one_at_a_time():
    sim, stats, macs, received = build_pair()
    for _ in range(3):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=0.01)
    # Far too little time for three service periods; at most one delivery so far.
    assert len(received) <= 1
    sim.run(until=10.0)
    assert len(received) == 3


def test_available_rate_decreases_under_load():
    sim, stats, macs, received = build_pair()
    idle_rate = macs[0].available_rate_pps(1)
    for _ in range(20):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=3.0)
    loaded_rate = macs[0].available_rate_pps(1)
    assert loaded_rate < idle_rate


def test_available_rate_has_floor():
    config = MacConfig(min_available_rate_pps=0.25)
    sim, stats, macs, received = build_pair(mac_config=config)
    for _ in range(40):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=2.0)
    assert macs[0].available_rate_pps(1) >= 0.25


def test_link_estimator_learns_loss():
    quality = LinkQuality(good_loss=0.5, bad_loss=0.5, bad_fraction=0.0)
    sim, stats, macs, received = build_pair(quality=quality)
    for _ in range(40):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=200.0)
    assert 0.25 <= macs[0].link_loss_rate(1) <= 0.75


def test_nominal_rate_positive_and_finite():
    config = MacConfig()
    assert 0 < config.nominal_rate_pps < 1000


def test_packet_without_size_bits_rejected():
    sim, stats, macs, received = build_pair()

    class Bad:
        flow_id = 0
        dst = 1

    macs[0].enqueue(Bad(), 1)
    with pytest.raises(AttributeError):
        sim.run(until=1.0)


def test_unwired_mac_raises_on_delivery():
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=LinkQuality.perfect())
    mac = TdmaMac(0, sim, channel, stats)
    with pytest.raises(RuntimeError):
        mac.receive(FramePacket(), 1)


def test_describe_mentions_node():
    sim, stats, macs, received = build_pair()
    assert "node=0" in macs[0].describe()
