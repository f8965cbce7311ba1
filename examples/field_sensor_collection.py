"""Field data collection over a mobile multi-hop network.

A deployment-flavoured scenario: fifteen battery-powered nodes scattered
over a field, some of them slowly moving (random waypoint at walking
pace), each periodically uploading measurement bundles to a collection
point.  The example runs the same workload under JTP, ATP and TCP-SACK
and prints the energy-per-bit / goodput comparison — the mobile-network
story of the paper's Figure 11.

Run with::

    python examples/field_sensor_collection.py
"""

from repro.experiments.metrics import collect_metrics
from repro.experiments.report import format_table
from repro.experiments.scenarios import PAPER_LINK_QUALITY
from repro.sim.mobility import RandomWaypointMobility
from repro.sim.network import Network
from repro.transport.registry import make_protocol

NUM_NODES = 15
COLLECTOR = 0
UPLOAD_BYTES = 40_000
NUM_UPLOADERS = 5
DURATION = 900.0
SPEED_MPS = 1.0


def run_protocol(name: str, seed: int = 11):
    """Run the collection workload under one transport protocol."""
    network = Network.random(NUM_NODES, seed=seed, link_quality=PAPER_LINK_QUALITY)
    mobility = RandomWaypointMobility(
        network.channel,
        rng=network.streams.stream("mobility"),
        speed=SPEED_MPS,
        field_size=getattr(network, "field_size", 200.0),
    )
    network.attach_mobility(mobility)

    protocol = make_protocol(name)
    protocol.install(network)
    uploaders = list(range(1, NUM_NODES))[:NUM_UPLOADERS]
    flows = [
        protocol.create_flow(network, src, COLLECTOR, UPLOAD_BYTES, start_time=20.0 * index)
        for index, src in enumerate(uploaders)
    ]
    network.run(DURATION)
    metrics = collect_metrics(network, flows, DURATION, name)
    return {
        "protocol": name,
        "energy_per_bit_uJ": round(metrics.energy_per_bit_microjoules, 2),
        "goodput_kbps": round(metrics.goodput_kbps, 3),
        "delivered_frac": round(metrics.delivered_fraction, 2),
        "source_rtx": metrics.source_retransmissions,
        "cache_recoveries": metrics.cache_recoveries,
        "queue_drops": metrics.queue_drops,
    }


def main() -> None:
    rows = [run_protocol(name) for name in ("jtp", "atp", "tcp")]
    print(format_table(rows, title=f"{NUM_UPLOADERS} uploads to a collector, "
                                   f"{NUM_NODES} nodes, {SPEED_MPS} m/s mobility"))
    print()
    print("Even while routes churn, JTP's in-network caches repair losses close to")
    print("the collector instead of re-sending across the whole (changing) path.")


if __name__ == "__main__":
    main()
