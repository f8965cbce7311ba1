"""Scenario builders for the paper's evaluation setups (Section 6.1).

Four scenario families cover every figure and table:

* **linear** — source and destination at the two ends of a chain whose
  links alternate between a good and a bad state (Gilbert–Elliott, 10%
  bad time, 3 s mean bad duration); used by Figures 3, 4, 5, 6, 7, 8, 9;
* **random** — nodes placed uniformly at random in a field sized to keep
  the network connected, several simultaneous flows between random
  pairs; Figure 10;
* **mobile** — the random scenario plus random-waypoint mobility at
  0.1 / 1 / 5 m/s with 47 m legs and 100 s pauses; Figure 11;
* **testbed** — a 14-node network with stable, low-loss indoor-style
  links and Poisson flow arrivals (mean inter-arrival 400 s, mean
  transfer 100 KB), standing in for the paper's Linux/JAVeLEN
  deployment; Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import JTPConfig
from repro.experiments.metrics import ScenarioMetrics, collect_metrics
from repro.mac.tdma import MacConfig
from repro.sim.channel import LinkQuality
from repro.sim.faults import FaultPlan
from repro.sim.mobility import RandomWaypointMobility
from repro.sim.network import Network
from repro.sim.random import RandomStreams
from repro.transport.base import FlowHandle, TransportProtocol
from repro.transport.registry import make_protocol
from repro.util.validation import require_positive

#: Link quality used in the simulation experiments: each link spends
#: roughly 10% of the time in a bad state whose mean duration is 3 s.
PAPER_LINK_QUALITY = LinkQuality(good_loss=0.05, bad_loss=0.6, bad_fraction=0.1, mean_bad_duration=3.0)

#: Link quality used for the testbed-like scenario of Table 2: the paper
#: notes the indoor links "are more stable and their quality is much
#: better" than the simulated ones.
STABLE_LINK_QUALITY = LinkQuality.stable(loss=0.02)

#: A uniformly lossy quality used by the caching studies (Figures 4-6).
#: With a per-attempt loss around 50% the residual loss after the MAC's
#: five bounded attempts is a few percent per hop, which is the regime
#: where the analytic model of Section 4.1 (Eqs. 5-6) predicts a clearly
#: visible gap between in-network and end-to-end recovery even at the
#: small transfer sizes the benchmarks use.
LOSSY_LINK_QUALITY = LinkQuality(good_loss=0.5, bad_loss=0.5, bad_fraction=0.0)


@dataclass
class ScenarioResult:
    """A finished scenario run: the network, its flows and the metrics."""

    network: Network
    protocol: TransportProtocol
    flows: List[FlowHandle]
    duration: float
    metrics: ScenarioMetrics

    @property
    def stats(self):
        return self.network.stats


def _resolve_protocol(protocol, jtp_config: Optional[JTPConfig]) -> TransportProtocol:
    if isinstance(protocol, TransportProtocol):
        return protocol
    return make_protocol(str(protocol), jtp_config)


def _finish(network: Network, protocol: TransportProtocol, flows: List[FlowHandle], duration: float) -> ScenarioResult:
    network.run(duration)
    metrics = collect_metrics(network, flows, duration, protocol.name)
    return ScenarioResult(network=network, protocol=protocol, flows=flows, duration=duration, metrics=metrics)


def linear_scenario(
    num_nodes: int,
    protocol="jtp",
    transfer_bytes: float = 200_000.0,
    num_flows: int = 2,
    duration: float = 1200.0,
    seed: int = 0,
    link_quality: Optional[LinkQuality] = None,
    mac_config: Optional[MacConfig] = None,
    jtp_config: Optional[JTPConfig] = None,
    flow_start_spacing: float = 5.0,
    trace_enabled: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one static linear-topology experiment.

    Both flows run from one end of the chain to the other, matching the
    paper's "source and destination of two competing flows are placed at
    the two ends of the network".
    """
    require_positive(num_nodes, "num_nodes")
    if num_nodes < 2:
        raise ValueError("a linear scenario needs at least two nodes")
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.linear(
        num_nodes,
        seed=seed,
        link_quality=link_quality or PAPER_LINK_QUALITY,
        mac_config=mac_config or MacConfig(),
        trace_enabled=trace_enabled,
    )
    proto.install(network)
    flows = [
        proto.create_flow(network, 0, num_nodes - 1, transfer_bytes, start_time=i * flow_start_spacing)
        for i in range(num_flows)
    ]
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def random_scenario(
    num_nodes: int,
    protocol="jtp",
    num_flows: int = 5,
    transfer_bytes: float = 100_000.0,
    duration: float = 1500.0,
    seed: int = 0,
    link_quality: Optional[LinkQuality] = None,
    jtp_config: Optional[JTPConfig] = None,
    radio_range: float = 50.0,
    trace_enabled: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one static random-topology experiment (Figure 10).

    Source/destination pairs are chosen uniformly at random but
    deterministically from the seed, so different protocols evaluated
    with the same seed see exactly the same topology and the same flows
    — the paper's "same conditions in the same run" methodology.
    """
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.random(
        num_nodes,
        radio_range=radio_range,
        seed=seed,
        link_quality=link_quality or PAPER_LINK_QUALITY,
        trace_enabled=trace_enabled,
    )
    proto.install(network)
    flows = _random_flows(network, proto, num_flows, transfer_bytes, seed)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def mobile_scenario(
    num_nodes: int = 15,
    protocol="jtp",
    speed: float = 1.0,
    num_flows: int = 5,
    transfer_bytes: float = 100_000.0,
    duration: float = 1500.0,
    seed: int = 0,
    jtp_config: Optional[JTPConfig] = None,
    radio_range: float = 50.0,
    trace_enabled: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one mobile random-topology experiment (Figure 11).

    Nodes follow the random-waypoint model: 47 m average legs at the
    given speed with 100 s average pauses, as in the paper.
    """
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.random(
        num_nodes,
        radio_range=radio_range,
        seed=seed,
        link_quality=PAPER_LINK_QUALITY,
        trace_enabled=trace_enabled,
    )
    field_size = getattr(network, "field_size", 200.0)
    mobility = RandomWaypointMobility(
        network.channel,
        rng=network.streams.stream("mobility"),
        speed=speed,
        mean_leg_distance=47.0,
        mean_pause=100.0,
        field_size=field_size,
    )
    network.attach_mobility(mobility)
    proto.install(network)
    flows = _random_flows(network, proto, num_flows, transfer_bytes, seed)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def testbed_scenario(
    protocol="jtp",
    num_nodes: int = 14,
    duration: float = 1800.0,
    mean_interarrival: float = 400.0,
    mean_transfer_bytes: float = 100_000.0,
    seed: int = 0,
    jtp_config: Optional[JTPConfig] = None,
    trace_enabled: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one testbed-like experiment (Table 2).

    Fourteen nodes with stable, low-loss links; every node generates
    transfers to random destinations with exponentially distributed
    inter-arrival times (mean 400 s) and exponentially distributed sizes
    (mean 100 KB), mirroring the workload of the paper's 30-minute
    Linux/JAVeLEN runs.
    """
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.random(
        num_nodes,
        seed=seed,
        link_quality=STABLE_LINK_QUALITY,
        trace_enabled=trace_enabled,
    )
    proto.install(network)
    workload_rng = RandomStreams(seed).stream("testbed-workload")
    flows: List[FlowHandle] = []
    for src in range(num_nodes):
        arrival = workload_rng.expovariate(1.0 / mean_interarrival)
        while arrival < duration * 0.8:
            dst = workload_rng.randrange(num_nodes - 1)
            if dst >= src:
                dst += 1
            size = max(8_000.0, workload_rng.expovariate(1.0 / mean_transfer_bytes))
            flows.append(proto.create_flow(network, src, dst, size, start_time=arrival))
            arrival += workload_rng.expovariate(1.0 / mean_interarrival)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def _random_flows(
    network: Network,
    proto: TransportProtocol,
    num_flows: int,
    transfer_bytes: float,
    seed: int,
) -> List[FlowHandle]:
    """Pick ``num_flows`` random (src, dst) pairs, deterministically from the seed."""
    rng = RandomStreams(seed).stream("flow-endpoints")
    flows: List[FlowHandle] = []
    for index in range(num_flows):
        src = rng.randrange(network.num_nodes)
        dst = rng.randrange(network.num_nodes - 1)
        if dst >= src:
            dst += 1
        flows.append(proto.create_flow(network, src, dst, transfer_bytes, start_time=5.0 * index))
    return flows
