"""The paper's figures and tables, and the registry that declares them.

Every figure of the paper is **one** :class:`FigureJob` entry in
:data:`ALL_FIGURES`, written in paper order.  The entry is the only
place the figure is declared: its name, seed family, one-line
description, CI smoke parameters, its declarative
:class:`~repro.plots.spec.PlotSpec` (axes columns, series grouping,
95%-CI error-bar columns, log scales) and a direct reference to its
builder.  The fault-injection workloads of
:mod:`repro.experiments.workloads` are entries of the same type.
:func:`~repro.experiments.presets.run_paper`, ``python -m
repro.experiments --list-figures`` and ``python -m repro.plots`` all
read the registry; nothing looks a builder up by name.

Builder defaults are scaled down from the paper's (shorter runs,
smaller transfers) so a full regeneration finishes in minutes on a
laptop; every parameter can be turned back up.  There are two kinds of
job:

* **metric** figures (3, 4, 4b, 6, 9, 10, 11 and Table 2) only need
  per-run metrics.  Their builder ``<name>_plan()`` returns a
  :class:`FigurePlan`: a grid of
  :class:`~repro.experiments.parallel.ScenarioSpec` cells plus an
  ``aggregate`` turning record groups into rows.  The split is what
  lets ``run_paper`` batch **every** figure's cells into one
  interleaved pool submission
  (:func:`~repro.experiments.parallel.run_grids`).  To
  run one figure on its own, call ``figure9_plan(**params).run(seeds,
  workers=…, backend=…)``: ``workers`` defaults to the shared
  persistent :class:`~repro.experiments.backends.AsyncBackend` pool
  (one worker per core, reused across calls), ``workers=0`` or ``1``
  run serially, and ``backend=`` accepts any
  :class:`~repro.experiments.backends.ExecutorBackend` (pass one of the
  two, not both).  The rows are bit-identical either way, because every
  run is fully determined by its seed.
* **trace** figures (3c, 5, 7, 8) inspect live simulator state after
  the run, so they execute serially in-process.  Their builder returns
  tidy rows directly (``figure7``) or through a ``figureN_rows``
  adapter over the series-shaped function (``figure3c``, ``figure5``,
  ``figure8``), so ``run_paper`` and the on-disk results store
  (:mod:`repro.experiments.results`) treat all figures uniformly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, cast

from repro.core.config import CachePolicy, FeedbackMode, JTPConfig
from repro.experiments.backends import ExecutorBackend
from repro.experiments.parallel import ScenarioRecord, ScenarioSpec, run_grids
from repro.plots.spec import AxesSpec, PlotSpec
from repro.experiments.runner import confidence_interval
from repro.experiments.scenarios import (
    LOSSY_LINK_QUALITY,
    PAPER_LINK_QUALITY,
    linear_scenario,
)
from repro.transport.registry import make_protocol
from repro.transport.udp import UdpConfig, UdpProtocol

Row = Dict[str, object]


def _mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    return statistics.fmean(values), confidence_interval(list(values))


@dataclass(frozen=True)
class FigurePlan:
    """A metric figure split into its grid and its aggregation.

    ``specs`` lists one :class:`ScenarioSpec` per figure cell and
    ``aggregate`` turns the per-spec record groups of one grid of
    :func:`~repro.experiments.parallel.run_grids` into the figure's
    rows.  The split is what lets
    :func:`~repro.experiments.presets.run_paper` batch every figure's
    grid into **one** pool submission: plans are built up front, every
    plan's specs go down together via
    :func:`~repro.experiments.parallel.run_grids`, and
    each figure's ``aggregate`` consumes its own demultiplexed slice —
    producing rows bit-identical to a standalone :meth:`run`.

    Every ``<name>_plan()`` builder takes only simulation parameters;
    ``seeds``, ``workers`` and ``backend`` belong to :meth:`run`.
    """

    name: str
    specs: Tuple[ScenarioSpec, ...]
    aggregate: Callable[[Sequence[Sequence[ScenarioRecord]]], List[Row]]

    def run(
        self,
        seeds: Sequence[int],
        workers: Optional[int] = None,
        backend: Optional[ExecutorBackend] = None,
    ) -> List[Row]:
        """Execute the plan's grid on one backend and aggregate the rows."""
        groups = run_grids([(self.specs, seeds)], workers=workers, backend=backend)[0]
        return self.aggregate(groups)


#: Rows as a claim reads them: freshly aggregated or loaded back from disk.
Rows = Sequence[Mapping[str, Any]]


@dataclass(frozen=True)
class Claim:
    """One qualitative claim of the paper, checked on a figure's rows.

    ``check(rows)`` returns ``"pass"``, ``"fail"`` or ``"n/a"`` and
    never raises.  ``"n/a"`` means the rows lack the cells the claim
    compares, e.g. a cache size the run did not simulate.  ``id`` is
    prefixed by the figure name (``"figure9.jtp_energy_lt_tcp"``).
    """

    id: str
    description: str
    check: Callable[[Rows], str]


@dataclass(frozen=True)
class FigureJob:
    """One registry entry: a paper figure or fault workload, declared once.

    ``build`` is the job's builder, referenced directly.  For
    ``kind="metric"`` it is the ``<name>_plan()`` function, whose grid
    joins ``run_paper``'s batched pool submission; for ``kind="trace"``
    it returns the figure's rows and runs serially in-process.
    ``family`` (``"linear"`` or ``"random"``) picks the seed preset.
    ``plot`` turns the job's rows into an image; ``tests/test_plots.py``
    checks for every job that it names only columns the rows carry.
    ``description`` is the one line printed by ``python -m
    repro.experiments --list-figures``; the doc tests pin it in the
    README and ``docs/faults.md``.  ``claims`` are the paper's
    qualitative orderings on the job's rows; ``run_paper(out_dir=…)``
    records their verdicts in the manifest and
    ``benchmarks/bench_figures.py`` requires every one to pass.
    """

    name: str
    family: str
    build: Callable[..., Any]
    plot: PlotSpec
    description: str
    #: Parameter overrides applied for ``seeds="smoke"`` so a full smoke
    #: sweep stays CI-sized; paper runs use the builder defaults.
    smoke_kwargs: Dict[str, object] = field(default_factory=dict)
    #: ``"metric"`` (batched grid) or ``"trace"`` (serial rows).
    kind: str = "metric"
    claims: Tuple[Claim, ...] = ()

    def planner(self) -> Callable[..., Any]:
        """The job's builder: ``<name>_plan`` for a metric job."""
        return self.build

    def check(self, rows: Rows) -> Dict[str, str]:
        """``{claim id: "pass" | "fail" | "n/a"}`` for every claim on ``rows``."""
        return {claim.id: claim.check(rows) for claim in self.claims}


# ---------------------------------------------------------------------------
# Figure 3 — adjustable reliability levels
# ---------------------------------------------------------------------------

def figure3_plan(
    net_sizes: Sequence[int] = (3, 5, 7, 9),
    tolerances: Sequence[float] = (0.0, 0.10, 0.20),
    transfer_bytes: float = 120_000.0,
    duration: float = 900.0,
) -> FigurePlan:
    """Figures 3(a) and 3(b): energy and delivered data per reliability level."""
    cells = [(size, tolerance) for size in net_sizes for tolerance in tolerances]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": f"jtp{int(round(tolerance * 100))}" if tolerance > 0 else "jtp",
            "jtp_config": JTPConfig(loss_tolerance=tolerance),
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
        })
        for size, tolerance in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (size, tolerance), records in zip(cells, groups, strict=True):
            energies = [r.metrics.energy_joules for r in records]
            delivered = [r.metrics.delivered_bytes / 1e3 for r in records]
            energy_mean, energy_ci = _mean_ci(energies)
            data_mean, data_ci = _mean_ci(delivered)
            rows.append({
                "netSize": size,
                "protocol": f"jtp{int(round(tolerance * 100))}",
                "loss_tolerance": tolerance,
                "total_energy_J": energy_mean,
                "total_energy_ci": energy_ci,
                "data_delivered_kB": data_mean,
                "data_delivered_ci": data_ci,
                "requirement_kB": transfer_bytes * (1.0 - tolerance) / 1e3,
            })
        return rows

    return FigurePlan("figure3", specs, aggregate)


def figure3c(
    num_nodes: int = 4,
    tolerances: Sequence[float] = (0.10, 0.20),
    transfer_bytes: float = 120_000.0,
    duration: float = 900.0,
    seed: int = 1,
) -> Dict[str, List[Tuple[float, int]]]:
    """Figure 3(c): iJTP's per-packet attempt bound over time at the third node.

    Returns, per reliability label, the ``(time, attempts)`` series
    recorded at node index 2 (the third node of the chain), exactly the
    quantity plotted in the paper.
    """
    series: Dict[str, List[Tuple[float, int]]] = {}
    for tolerance in tolerances:
        label = f"jtp{int(round(tolerance * 100))}"
        result = linear_scenario(
            num_nodes,
            protocol=label,
            jtp_config=JTPConfig(loss_tolerance=tolerance),
            transfer_bytes=transfer_bytes,
            num_flows=1,
            duration=duration,
            seed=seed,
            trace_enabled=True,
        )
        events = result.network.trace.events("ijtp_attempts", node=2)
        series[label] = [(event.time, int(event["attempts"])) for event in events]
    return series


# ---------------------------------------------------------------------------
# Figure 4 — caching gain (JTP vs JNC)
# ---------------------------------------------------------------------------

def figure4_plan(
    net_sizes: Sequence[int] = (3, 5, 7, 9),
    transfer_bytes: float = 150_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 4(a): energy per delivered bit, JTP vs. JNC, vs. path length."""
    cells = [(size, name) for size in net_sizes for name in ("jtp", "jnc")]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "link_quality": LOSSY_LINK_QUALITY,
        })
        for size, name in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (size, name), records in zip(cells, groups, strict=True):
            mean, ci = _mean_ci([r.metrics.energy_per_bit_microjoules for r in records])
            rows.append({
                "netSize": size,
                "protocol": name,
                "energy_per_bit_uJ": mean,
                "energy_per_bit_ci": ci,
                "source_rtx": statistics.fmean(r.metrics.source_retransmissions for r in records),
            })
        return rows

    return FigurePlan("figure4", specs, aggregate)


def figure4b_plan(
    num_nodes: int = 7,
    transfer_bytes: float = 150_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 4(b): per-node energy in a 7-node chain, JTP vs. JNC."""
    names = ("jtp", "jnc")
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": num_nodes,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "link_quality": LOSSY_LINK_QUALITY,
        })
        for name in names
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for name, records in zip(names, groups, strict=True):
            per_node: Dict[int, List[float]] = {i: [] for i in range(num_nodes)}
            for record in records:
                for node_id, joules in record.metrics.per_node_energy.items():
                    per_node[node_id].append(joules)
            for node_id in range(num_nodes):
                rows.append({
                    "protocol": name,
                    "node": node_id,
                    "energy_J": statistics.fmean(per_node[node_id]) if per_node[node_id] else 0.0,
                })
        return rows

    return FigurePlan("figure4b", specs, aggregate)


# ---------------------------------------------------------------------------
# Figure 5 — fairness of in-network caching (source back-off)
# ---------------------------------------------------------------------------

def figure5(
    num_nodes: int = 6,
    duration: float = 900.0,
    transfer_bytes: float = 400_000.0,
    seed: int = 2,
    short_window: float = 20.0,
    long_window: float = 120.0,
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Figure 5: reception-rate series of two competing flows, back-off on/off.

    Flow 1 is a UDP-like flow (no retransmission requests); flow 2 is a
    fully reliable JTP flow that exercises the in-network caches.  The
    result maps "with_backoff"/"without_backoff" to per-flow short- and
    long-term reception-rate time series.
    """
    output: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for backoff in (True, False):
        jtp_config = JTPConfig(backoff_enabled=backoff)
        jtp = make_protocol("jtp", jtp_config)
        udp = UdpProtocol(UdpConfig(rate_pps=2.0))
        result_key = "with_backoff" if backoff else "without_backoff"

        network_result = linear_scenario(
            num_nodes,
            protocol=jtp,
            transfer_bytes=transfer_bytes,
            num_flows=1,
            duration=1.0,  # run() is called again below once both flows exist
            seed=seed,
            jtp_config=jtp_config,
            link_quality=LOSSY_LINK_QUALITY,
        )
        network = network_result.network
        udp_flow = udp.create_flow(network, 0, num_nodes - 1, transfer_bytes, start_time=0.0)
        network.run(duration)

        end = network.sim.now
        jtp_flow = network_result.flows[0]
        output[result_key] = {
            "flow1_short": udp_flow.stats.reception_rate_series(short_window, short_window / 2, end),
            "flow1_long": udp_flow.stats.reception_rate_series(long_window, long_window / 2, end),
            "flow2_short": jtp_flow.stats.reception_rate_series(short_window, short_window / 2, end),
            "flow2_long": jtp_flow.stats.reception_rate_series(long_window, long_window / 2, end),
        }
    return output


# ---------------------------------------------------------------------------
# Figure 6 — effect of cache size
# ---------------------------------------------------------------------------

def figure6_plan(
    cache_sizes: Sequence[int] = (2, 5, 10, 20, 50, 100),
    net_sizes: Sequence[int] = (5, 8),
    transfer_bytes: float = 200_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 6: source retransmissions vs. in-network cache size."""
    cells = [(size, cache_size) for size in net_sizes for cache_size in cache_sizes]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": "jtp",
            "jtp_config": JTPConfig(cache_size=cache_size),
            "transfer_bytes": transfer_bytes,
            "num_flows": 1,
            "duration": duration,
            "link_quality": LOSSY_LINK_QUALITY,
        })
        for size, cache_size in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (size, cache_size), records in zip(cells, groups, strict=True):
            rows.append({
                "netSize": size,
                "cache_size": cache_size,
                "source_rtx": statistics.fmean(r.metrics.source_retransmissions for r in records),
                "cache_recoveries": statistics.fmean(r.metrics.cache_recoveries for r in records),
            })
        return rows

    return FigurePlan("figure6", specs, aggregate)


# ---------------------------------------------------------------------------
# Figure 7 — variable vs constant feedback rate
# ---------------------------------------------------------------------------

def figure7(
    feedback_rates: Sequence[float] = (0.05, 0.1, 0.2, 0.33, 0.5),
    num_nodes: int = 8,
    duration: float = 900.0,
    long_transfer_bytes: float = 600_000.0,
    short_transfer_bytes: float = 40_000.0,
    num_short_flows: int = 3,
    seed: int = 1,
) -> List[Row]:
    """Figure 7: energy and queue drops vs. feedback rate, plus the variable point.

    One long-lived flow spans the whole chain while several short-lived
    flows come and go, so slow feedback lets the long-lived sender keep
    transmitting into a congested path (queue drops) while fast feedback
    burns energy on acknowledgments.  Variable-rate feedback should sit
    near the bottom-left of both curves.
    """
    rows: List[Row] = []
    configurations: List[Tuple[str, JTPConfig]] = [
        (f"constant_{rate:g}", JTPConfig(feedback_mode=FeedbackMode.CONSTANT,
                                         constant_feedback_period=1.0 / rate))
        for rate in feedback_rates
    ]
    configurations.append(("variable", JTPConfig(feedback_mode=FeedbackMode.VARIABLE)))

    for label, config in configurations:
        protocol = make_protocol("jtp", config)
        base = linear_scenario(
            num_nodes,
            protocol=protocol,
            jtp_config=config,
            transfer_bytes=long_transfer_bytes,
            num_flows=1,
            duration=1.0,
            seed=seed,
        )
        network = base.network
        flows = list(base.flows)
        for index in range(num_short_flows):
            start = 100.0 + index * (duration / (num_short_flows + 1))
            flows.append(protocol.create_flow(network, 1, num_nodes - 2, short_transfer_bytes, start_time=start))
        network.run(duration)
        stats = network.stats
        rows.append({
            "feedback": label,
            "feedback_rate_pps": (1.0 / config.constant_feedback_period
                                  if config.feedback_mode is FeedbackMode.CONSTANT else None),
            "energy_mJ": stats.total_energy_joules() * 1e3,
            "queue_drops": network.total_queue_drops(),
            "acks": sum(f.stats.acks_sent for f in flows),
            "delivered_fraction": statistics.fmean(f.delivered_fraction for f in flows),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — rate adaptation of competing flows
# ---------------------------------------------------------------------------

def figure8(
    num_nodes: int = 6,
    duration: float = 900.0,
    flow2_start: float = 300.0,
    flow2_duration: float = 250.0,
    seed: int = 4,
    window: float = 30.0,
) -> Dict[str, object]:
    """Figure 8: two competing JTP flows, one long-lived and one short-lived.

    Returns the reception-rate series of both flows plus flow 1's path
    monitor readings (reported available rate, filtered mean and control
    limits) so the flip-flop behaviour around the arrival and departure
    of flow 2 can be inspected.
    """
    protocol = make_protocol("jtp")
    base = linear_scenario(
        num_nodes,
        protocol=protocol,
        transfer_bytes=2_000_000.0,
        num_flows=1,
        duration=1.0,
        seed=seed,
        trace_enabled=True,
    )
    network = base.network
    flow1 = base.flows[0]
    flow2_bytes = 800.0 * 3.0 * flow2_duration  # roughly 3 pkt/s for its lifetime
    flow2 = protocol.create_flow(network, 0, num_nodes - 1, flow2_bytes, start_time=flow2_start)
    network.run(duration)
    end = network.sim.now

    monitor_events = network.trace.events("jtp_receive", flow=flow1.flow_id)
    return {
        "flow1_rate": flow1.stats.reception_rate_series(window, window / 2, end),
        "flow2_rate": flow2.stats.reception_rate_series(window, window / 2, end),
        "flow1_reported_rate": [(e.time, e["rate_stamp"]) for e in monitor_events],
        "flow1_monitor_mean": [(e.time, e["monitor_mean"]) for e in monitor_events],
        "flow1_control_limits": [(e.time, e["monitor_lcl"], e["monitor_ucl"]) for e in monitor_events],
        "flow2_interval": (flow2_start, flow2_start + flow2_duration),
    }


# ---------------------------------------------------------------------------
# Figures 9-11 and Table 2 — protocol comparisons
# ---------------------------------------------------------------------------

def _comparison_aggregate(
    cells: Sequence[Tuple[object, str]],
    cell_key: str,
) -> Callable[[Sequence[Sequence[ScenarioRecord]]], List[Row]]:
    """Shared aggregation for the figure 9/10 protocol-comparison grids."""

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (cell_value, name), records in zip(cells, groups, strict=True):
            energy_mean, energy_ci = _mean_ci([r.metrics.energy_per_bit_microjoules for r in records])
            goodput_mean, goodput_ci = _mean_ci([r.metrics.goodput_kbps for r in records])
            rows.append({
                cell_key: cell_value,
                "protocol": name,
                "energy_per_bit_uJ": energy_mean,
                "energy_per_bit_ci": energy_ci,
                "goodput_kbps": goodput_mean,
                "goodput_ci": goodput_ci,
            })
        return rows

    return aggregate


def figure9_plan(
    net_sizes: Sequence[int] = (3, 5, 7, 9),
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    transfer_bytes: float = 300_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 9: energy per bit and goodput on linear topologies."""
    cells = [(size, name) for size in net_sizes for name in protocols]
    specs = tuple(
        ScenarioSpec("linear", {
            "num_nodes": size,
            "protocol": name,
            "transfer_bytes": transfer_bytes,
            "num_flows": 2,
            "duration": duration,
        })
        for size, name in cells
    )
    return FigurePlan("figure9", specs, _comparison_aggregate(cells, "netSize"))


def figure10_plan(
    net_sizes: Sequence[int] = (10, 15, 20),
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    num_flows: int = 5,
    transfer_bytes: float = 100_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 10: energy per bit and goodput on static random topologies."""
    cells = [(size, name) for size in net_sizes for name in protocols]
    specs = tuple(
        ScenarioSpec("random", {
            "num_nodes": size,
            "protocol": name,
            "num_flows": num_flows,
            "transfer_bytes": transfer_bytes,
            "duration": duration,
        })
        for size, name in cells
    )
    return FigurePlan("figure10", specs, _comparison_aggregate(cells, "netSize"))


def figure11_plan(
    speeds: Sequence[float] = (0.1, 1.0, 5.0),
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    num_nodes: int = 15,
    num_flows: int = 5,
    transfer_bytes: float = 80_000.0,
    duration: float = 1200.0,
) -> FigurePlan:
    """Figure 11(a,b,c): energy per bit and goodput under random-waypoint mobility.

    The rows also carry the Figure 11(c) quantities: source
    retransmissions and cache recoveries, normalised by delivered
    packets.
    """
    cells = [(speed, name) for speed in speeds for name in protocols]
    specs = tuple(
        ScenarioSpec("mobile", {
            "num_nodes": num_nodes,
            "protocol": name,
            "speed": speed,
            "num_flows": num_flows,
            "transfer_bytes": transfer_bytes,
            "duration": duration,
        })
        for speed, name in cells
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for (speed, name), records in zip(cells, groups, strict=True):
            delivered = [max(1.0, r.metrics.delivered_bytes / 800.0) for r in records]
            rtx = [r.metrics.source_retransmissions for r in records]
            recoveries = [r.metrics.cache_recoveries for r in records]
            rows.append({
                "speed_mps": speed,
                "protocol": name,
                "energy_per_bit_uJ": statistics.fmean(r.metrics.energy_per_bit_microjoules for r in records),
                "goodput_kbps": statistics.fmean(r.metrics.goodput_kbps for r in records),
                "source_rtx_per_kpkt": 1e3 * statistics.fmean(r / d for r, d in zip(rtx, delivered, strict=True)),
                "cache_hits_per_kpkt": 1e3 * statistics.fmean(c / d for c, d in zip(recoveries, delivered, strict=True)),
            })
        return rows

    return FigurePlan("figure11", specs, aggregate)


def table1() -> List[Row]:
    """Table 1: the default parameter values used throughout the evaluation."""
    config = JTPConfig()
    return [
        {"parameter": "MAX_ATTEMPTS", "value": config.max_attempts},
        {"parameter": "JTP Pkt Size", "value": f"{config.packet_size_bytes:.0f} bytes"},
        {"parameter": "Cache Size", "value": f"{config.cache_size} pkts"},
        {"parameter": "T_Lower_bound", "value": f"{config.t_lower_bound:.0f} s"},
        {"parameter": "JTP header", "value": f"{config.header_bytes:.0f} bytes"},
        {"parameter": "JTP ACK header", "value": f"{config.ack_header_bytes:.0f} bytes"},
    ]


def table2_plan(
    protocols: Sequence[str] = ("jtp", "atp", "tcp"),
    duration: float = 1800.0,
    num_nodes: int = 14,
) -> FigurePlan:
    """Table 2: testbed-like comparison over stable, low-loss links."""
    protocols = tuple(protocols)
    specs = tuple(
        ScenarioSpec("testbed", {"protocol": name, "num_nodes": num_nodes, "duration": duration})
        for name in protocols
    )

    def aggregate(groups: Sequence[Sequence[ScenarioRecord]]) -> List[Row]:
        rows: List[Row] = []
        for name, records in zip(protocols, groups, strict=True):
            rows.append({
                "protocol": name,
                "energy_per_bit_mJ": statistics.fmean(r.metrics.energy_per_bit_millijoules for r in records),
                "goodput_kbps": statistics.fmean(r.metrics.goodput_kbps for r in records),
            })
        return rows

    return FigurePlan("table2", specs, aggregate)


# ---------------------------------------------------------------------------
# Tidy-row adapters for the serial trace figures (3c, 5, 8)
# ---------------------------------------------------------------------------
#
# The trace figures inspect live simulator state (trace events, per-flow
# statistics objects) and therefore run serially in-process.  Figures
# 3c, 5 and 8 return series-shaped dictionaries; the ``*_rows`` adapters
# below re-express each of them as a flat list of row dictionaries with
# a stable key set, which is the one shape the whole pipeline speaks:
# ``run_paper`` returns rows for every figure, the results store
# persists rows, and ``report`` renders rows.  Figure 7 already returns
# rows.  The raw series functions stay available unchanged.


def figure3c_rows(**kwargs: Any) -> List[Row]:
    """Figure 3(c) as tidy rows: ``protocol``, ``time``, ``attempts``.

    Accepts exactly the keyword arguments of :func:`figure3c`.
    """
    rows: List[Row] = []
    for label, points in figure3c(**kwargs).items():
        rows.extend(
            {"protocol": label, "time": time, "attempts": attempts}
            for time, attempts in points
        )
    return rows


def figure5_rows(**kwargs: Any) -> List[Row]:
    """Figure 5 as tidy rows: ``variant``, ``series``, ``time``, ``rate_pps``.

    ``variant`` is ``with_backoff``/``without_backoff`` and ``series``
    one of the four per-flow reception-rate series.  Accepts exactly the
    keyword arguments of :func:`figure5`.
    """
    rows: List[Row] = []
    for variant, series_map in figure5(**kwargs).items():
        for series, points in series_map.items():
            rows.extend(
                {"variant": variant, "series": series, "time": time, "rate_pps": rate}
                for time, rate in points
            )
    return rows


def figure8_rows(**kwargs: Any) -> List[Row]:
    """Figure 8 as tidy rows: ``series``, ``time``, ``value``.

    The reception-rate and monitor series keep their names; the control
    limits become the ``flow1_lcl``/``flow1_ucl`` series, and flow 2's
    activity interval is one ``flow2_interval`` row whose ``time`` is
    the start and ``value`` the end.  Accepts exactly the keyword
    arguments of :func:`figure8`.
    """
    output = figure8(**kwargs)
    rows: List[Row] = []
    for series in ("flow1_rate", "flow2_rate", "flow1_reported_rate", "flow1_monitor_mean"):
        points = cast(List[Tuple[float, float]], output[series])
        rows.extend({"series": series, "time": time, "value": value} for time, value in points)
    for time, lcl, ucl in cast(List[Tuple[float, float, float]], output["flow1_control_limits"]):
        rows.append({"series": "flow1_lcl", "time": time, "value": lcl})
        rows.append({"series": "flow1_ucl", "time": time, "value": ucl})
    start, end = cast(Tuple[float, float], output["flow2_interval"])
    rows.append({"series": "flow2_interval", "time": start, "value": end})
    return rows


# ---------------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ---------------------------------------------------------------------------

def ablation_cache_policy(
    num_nodes: int = 7,
    cache_size: int = 10,
    transfer_bytes: float = 200_000.0,
    duration: float = 1200.0,
    seeds: Sequence[int] = (1, 2),
) -> List[Row]:
    """LRU vs. FIFO cache eviction under a deliberately small cache."""
    rows: List[Row] = []
    for policy in (CachePolicy.LRU, CachePolicy.FIFO):
        rtx, recoveries = [], []
        for seed in seeds:
            result = linear_scenario(
                num_nodes,
                protocol="jtp",
                jtp_config=JTPConfig(cache_size=cache_size, cache_policy=policy),
                transfer_bytes=transfer_bytes,
                num_flows=1,
                duration=duration,
                seed=seed,
                link_quality=LOSSY_LINK_QUALITY,
            )
            rtx.append(result.metrics.source_retransmissions)
            recoveries.append(result.metrics.cache_recoveries)
        rows.append({
            "policy": policy.value,
            "source_rtx": statistics.fmean(rtx),
            "cache_recoveries": statistics.fmean(recoveries),
        })
    return rows


def ablation_mac_type(
    num_nodes: int = 6,
    transfer_bytes: float = 200_000.0,
    duration: float = 1200.0,
    seeds: Sequence[int] = (1,),
) -> List[Row]:
    """TDMA vs. CSMA/CA MAC under JTP (footnote 3 of the paper)."""
    rows: List[Row] = []
    from repro.sim.network import Network
    from repro.transport.registry import make_protocol as _mk

    for mac_type in ("tdma", "csma"):
        energy, goodput = [], []
        for seed in seeds:
            network = Network.linear(num_nodes, seed=seed, link_quality=PAPER_LINK_QUALITY, mac_type=mac_type)
            protocol = _mk("jtp")
            protocol.install(network)
            flows = [protocol.create_flow(network, 0, num_nodes - 1, transfer_bytes, start_time=5.0 * i)
                     for i in range(2)]
            network.run(duration)
            from repro.experiments.metrics import collect_metrics
            metrics = collect_metrics(network, flows, duration, f"jtp/{mac_type}")
            energy.append(metrics.energy_per_bit_microjoules)
            goodput.append(metrics.goodput_kbps)
        rows.append({
            "mac": mac_type,
            "energy_per_bit_uJ": statistics.fmean(energy),
            "goodput_kbps": statistics.fmean(goodput),
        })
    return rows


# ---------------------------------------------------------------------------
# Claim checks — the paper's qualitative orderings on a figure's rows
# ---------------------------------------------------------------------------
#
# Each check compares cells of a figure's rows and folds the comparisons
# into one verdict.  A comparison is True/False, or None when a cell it
# needs is absent; the verdict is "n/a" if any comparison is None or
# there was nothing to compare.  Loops run over the values present in
# the rows (net sizes, speeds, protocols), not fixed lists, so one claim
# reads a smoke, bench or paper-scale run alike.

def _verdict(holds: Sequence[Optional[bool]]) -> str:
    if not holds or any(held is None for held in holds):
        return "n/a"
    return "pass" if all(holds) else "fail"


def _compare(
    key: str,
    a: object,
    b: object,
    holds: Callable[[Mapping[str, Any], Mapping[str, Any]], bool],
    per: Optional[str] = None,
    largest: bool = False,
) -> Callable[[Rows], str]:
    """A check of ``holds(row a, row b)``, the rows whose ``key`` is ``a`` and ``b``.

    The pair is compared within every group of rows sharing a ``per``
    value (all rows are one group without ``per``), or only within the
    group of the largest ``per`` value when ``largest`` is set.
    """

    def check(rows: Rows) -> str:
        groups: Dict[Any, Dict[Any, Mapping[str, Any]]] = {}
        for row in rows:
            groups.setdefault(row[per] if per else None, {})[row[key]] = row
        if largest and groups:
            groups = {None: groups[max(groups)]}
        return _verdict([holds(g[a], g[b]) if a in g and b in g else None for g in groups.values()])

    return check


def _series(rows: Rows, key: str, value: object, column: str) -> List[Any]:
    """``column`` of the rows whose ``key`` is ``value``, in row order."""
    return [row[column] for row in rows if row[key] == value]


def _figure3c_effort(rows: Rows) -> str:
    jtp10 = _series(rows, "protocol", "jtp10", "attempts")
    jtp20 = _series(rows, "protocol", "jtp20", "attempts")
    return _verdict([statistics.fmean(jtp20) <= statistics.fmean(jtp10) + 0.25] if jtp10 and jtp20 else [])


def _figure4b_energy(rows: Rows) -> str:
    jtp = _series(rows, "protocol", "jtp", "energy_J")
    jnc = _series(rows, "protocol", "jnc", "energy_J")
    return _verdict([sum(jtp) <= sum(jnc) * 1.1] if jtp and jnc else [])


def _figure5_delivers(series: str) -> Callable[[Rows], str]:
    def check(rows: Rows) -> str:
        variants = dict.fromkeys(row["variant"] for row in rows)
        return _verdict([
            any(row["rate_pps"] > 0 for row in rows if row["variant"] == variant and row["series"] == series)
            for variant in variants
        ])

    return check


def _figure8_rates(rows: Rows) -> Optional[Tuple[float, float, float]]:
    """Flow 1 alone, flow 1 while sharing and flow 2 while active, in pps."""
    interval = _series(rows, "series", "flow2_interval", "value")
    if not interval:
        return None
    start = _series(rows, "series", "flow2_interval", "time")[0]
    end = interval[0]

    def mean_rate(series: str, lo: float, hi: float) -> float:
        values = [row["value"] for row in rows if row["series"] == series and lo <= row["time"] <= hi]
        return statistics.fmean(values) if values else 0.0

    return (
        mean_rate("flow1_rate", 100.0, start),
        mean_rate("flow1_rate", start + 30.0, end),
        mean_rate("flow2_rate", start + 30.0, end),
    )


def _figure8_flow2_share(rows: Rows) -> str:
    rates = _figure8_rates(rows)
    return _verdict([rates[2] > 0.2] if rates else [])


def _figure8_flow1_concedes(rows: Rows) -> str:
    rates = _figure8_rates(rows)
    return _verdict([rates[1] <= rates[0] * 1.05] if rates else [])


def _figure9_energy_grows(rows: Rows) -> str:
    holds: List[Optional[bool]] = []
    for protocol in dict.fromkeys(row["protocol"] for row in rows):
        series = _series(rows, "protocol", protocol, "energy_per_bit_uJ")
        holds.append(series[-1] > series[0] if len(series) > 1 else None)
    return _verdict(holds)


def _figure11_cache_recovers(rows: Rows) -> str:
    hits = _series(rows, "protocol", "jtp", "cache_hits_per_kpkt")
    return _verdict([any(hit > 0 for hit in hits)] if hits else [])


# ---------------------------------------------------------------------------
# The registry — one entry per figure and table, in paper order
# ---------------------------------------------------------------------------
#
# Each PlotSpec names only columns its figure's rows carry and mirrors
# the paper's presentation: CI error bars where the rows store `*_ci`
# columns, log axes where the paper uses them (cache sizes, node
# speeds), bars for the per-node / per-protocol breakdowns.  Each claim's
# description quotes the bound its check applies.

#: Every figure :func:`~repro.experiments.presets.run_paper` regenerates,
#: in paper order.
ALL_FIGURES: Tuple[FigureJob, ...] = (
    FigureJob(
        "figure3",
        "linear",
        figure3_plan,
        description="Total energy and data delivered vs. net size for jtp0/jtp10/jtp20",
        smoke_kwargs={"net_sizes": (3, 5), "tolerances": (0.0, 0.10), "transfer_bytes": 40_000, "duration": 400},
        claims=(
            Claim(
                "figure3.delivery_meets_requirement",
                "every reliability level delivers >= its requirement - 1.0 kB",
                lambda rows: _verdict([row["data_delivered_kB"] >= row["requirement_kB"] - 1.0 for row in rows]),
            ),
        ),
        plot=PlotSpec(
            figure="figure3",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="total_energy_J", yerr="total_energy_ci", ylabel="total energy [J]"),
                AxesSpec(y="data_delivered_kB", yerr="data_delivered_ci", ylabel="data delivered [kB]"),
            ),
            title="Figure 3 - adjustable reliability: energy and delivered data",
        ),
    ),
    FigureJob(
        "figure3c",
        "linear",
        figure3c_rows,
        kind="trace",
        description="Per-packet link-layer attempt bound over time at the third node",
        smoke_kwargs={"num_nodes": 4, "tolerances": (0.10, 0.20), "transfer_bytes": 40_000, "duration": 400},
        claims=(
            Claim(
                "figure3c.attempts_planned",
                "iJTP planned per-packet attempts at the third node",
                lambda rows: _verdict([bool(rows)]),
            ),
            Claim(
                "figure3c.attempts_within_bounds",
                "every planned attempt bound is in [1, 5]",
                lambda rows: _verdict([all(1 <= row["attempts"] <= 5 for row in rows)] if rows else []),
            ),
            Claim(
                "figure3c.tolerant_flow_needs_less_effort",
                "mean attempt bound of jtp20 <= jtp10's + 0.25",
                _figure3c_effort,
            ),
        ),
        plot=PlotSpec(
            figure="figure3c",
            x="time",
            xlabel="time [s]",
            series=("protocol",),
            axes=(AxesSpec(y="attempts", ylabel="attempt bound"),),
            title="Figure 3(c) - iJTP per-packet attempt bound at the third node",
        ),
    ),
    FigureJob(
        "figure4",
        "linear",
        figure4_plan,
        description="Energy per bit, JTP vs. JNC, vs. net size (linear topologies)",
        smoke_kwargs={"net_sizes": (3, 5), "transfer_bytes": 50_000, "duration": 500},
        claims=(
            Claim(
                "figure4.jtp_energy_le_jnc",
                "at the longest path, JTP energy per bit <= JNC's x 1.05",
                _compare(
                    "protocol", "jtp", "jnc",
                    lambda jtp, jnc: jtp["energy_per_bit_uJ"] <= jnc["energy_per_bit_uJ"] * 1.05,
                    per="netSize", largest=True,
                ),
            ),
            Claim(
                "figure4.jtp_fewer_source_rtx",
                "at the longest path, JTP source retransmissions < JNC's",
                _compare(
                    "protocol", "jtp", "jnc",
                    lambda jtp, jnc: jtp["source_rtx"] < jnc["source_rtx"],
                    per="netSize", largest=True,
                ),
            ),
        ),
        plot=PlotSpec(
            figure="figure4",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="energy_per_bit_uJ", yerr="energy_per_bit_ci", ylabel="energy per bit [uJ]"),
                AxesSpec(y="source_rtx", ylabel="source retransmissions"),
            ),
            title="Figure 4(a) - caching gain: JTP vs JNC",
        ),
    ),
    FigureJob(
        "figure4b",
        "linear",
        figure4b_plan,
        description="Per-node energy in a 7-node linear topology, JTP vs. JNC",
        smoke_kwargs={"num_nodes": 5, "transfer_bytes": 50_000, "duration": 500},
        claims=(
            Claim(
                "figure4b.jtp_total_energy_le_jnc",
                "JTP total energy over all nodes <= JNC's x 1.1",
                _figure4b_energy,
            ),
        ),
        plot=PlotSpec(
            figure="figure4b",
            x="node",
            xlabel="node index",
            series=("protocol",),
            axes=(AxesSpec(y="energy_J", ylabel="energy [J]", kind="bar"),),
            title="Figure 4(b) - per-node energy, 7-node chain",
        ),
    ),
    FigureJob(
        "figure5",
        "linear",
        figure5_rows,
        kind="trace",
        description="Reception-rate time series of two competing flows, back-off on/off",
        smoke_kwargs={"num_nodes": 5, "duration": 300, "transfer_bytes": 100_000},
        claims=(
            Claim(
                "figure5.flow1_delivers",
                "with and without back-off, the UDP-like flow 1 has a short-term rate > 0",
                _figure5_delivers("flow1_short"),
            ),
            Claim(
                "figure5.flow2_delivers",
                "with and without back-off, the JTP flow 2 has a short-term rate > 0",
                _figure5_delivers("flow2_short"),
            ),
        ),
        plot=PlotSpec(
            figure="figure5",
            x="time",
            xlabel="time [s]",
            series=("variant", "series"),
            axes=(AxesSpec(y="rate_pps", ylabel="reception rate [pkt/s]"),),
            title="Figure 5 - competing flows with source back-off on/off",
        ),
    ),
    FigureJob(
        "figure6",
        "linear",
        figure6_plan,
        description="Source retransmissions vs. in-network cache size for several net sizes",
        smoke_kwargs={"cache_sizes": (2, 10), "net_sizes": (5,), "transfer_bytes": 50_000, "duration": 400},
        claims=(
            Claim(
                "figure6.tiny_cache_more_source_rtx",
                "per net size, source retransmissions at cache size 2 >= at cache size 100",
                _compare(
                    "cache_size", 2, 100,
                    lambda tiny, big: tiny["source_rtx"] >= big["source_rtx"],
                    per="netSize",
                ),
            ),
            Claim(
                "figure6.big_cache_le_small",
                "per net size, source retransmissions at cache size 100 <= at cache size 5",
                _compare(
                    "cache_size", 100, 5,
                    lambda big, small: big["source_rtx"] <= small["source_rtx"],
                    per="netSize",
                ),
            ),
        ),
        plot=PlotSpec(
            figure="figure6",
            x="cache_size",
            xlabel="cache size [pkts]",
            series=("netSize",),
            logx=True,
            axes=(
                AxesSpec(y="source_rtx", ylabel="source retransmissions"),
                AxesSpec(y="cache_recoveries", ylabel="cache recoveries"),
            ),
            title="Figure 6 - effect of in-network cache size",
        ),
    ),
    FigureJob(
        "figure7",
        "linear",
        figure7,
        kind="trace",
        description="Energy and queue drops vs. feedback rate, constant vs. variable",
        smoke_kwargs={
            "feedback_rates": (0.1, 0.5),
            "num_nodes": 5,
            "duration": 300,
            "long_transfer_bytes": 120_000,
            "short_transfer_bytes": 15_000,
            "num_short_flows": 2,
        },
        claims=(
            Claim(
                "figure7.variable_energy_le_fastest_constant",
                "variable feedback energy <= constant 0.5 pps feedback energy",
                _compare(
                    "feedback", "variable", "constant_0.5",
                    lambda variable, fastest: variable["energy_mJ"] <= fastest["energy_mJ"],
                ),
            ),
            Claim(
                "figure7.variable_fewer_acks",
                "variable feedback sends < the ACKs of constant 0.5 pps feedback",
                _compare(
                    "feedback", "variable", "constant_0.5",
                    lambda variable, fastest: variable["acks"] < fastest["acks"],
                ),
            ),
        ),
        plot=PlotSpec(
            figure="figure7",
            x="feedback",
            xlabel="feedback mode",
            axes=(
                AxesSpec(y="energy_mJ", ylabel="energy [mJ]", kind="bar"),
                AxesSpec(y="queue_drops", ylabel="queue drops", kind="bar"),
            ),
            title="Figure 7 - constant vs variable feedback rate",
        ),
    ),
    FigureJob(
        "figure8",
        "linear",
        figure8_rows,
        kind="trace",
        description="Rate adaptation of two competing JTP flows (flip-flop monitor)",
        smoke_kwargs={"num_nodes": 4, "duration": 400, "flow2_start": 120.0, "flow2_duration": 120.0},
        claims=(
            Claim(
                "figure8.flow2_gets_share",
                "flow 2's mean rate while active (from 30 s after its start) > 0.2 pps",
                _figure8_flow2_share,
            ),
            Claim(
                "figure8.flow1_concedes",
                "flow 1's mean rate while flow 2 is active <= its rate alone (100 s to flow 2's start) x 1.05",
                _figure8_flow1_concedes,
            ),
            Claim(
                "figure8.monitor_view",
                "flow 1's flip-flop monitor mean has > 10 readings",
                lambda rows: _verdict([len(_series(rows, "series", "flow1_monitor_mean", "value")) > 10]),
            ),
        ),
        plot=PlotSpec(
            figure="figure8",
            x="time",
            xlabel="time [s]",
            series=("series",),
            # The flow2_interval row is a (start, end) annotation, not a
            # series; plotting it as a curve would draw a meaningless point.
            exclude=("flow2_interval",),
            axes=(AxesSpec(y="value", ylabel="rate [pkt/s] / monitor level"),),
            title="Figure 8 - rate adaptation of two competing JTP flows",
        ),
    ),
    FigureJob(
        "figure9",
        "linear",
        figure9_plan,
        description="Energy per bit and goodput vs. net size, JTP vs. ATP vs. TCP (linear)",
        smoke_kwargs={"net_sizes": (3, 5), "transfer_bytes": 60_000, "duration": 400},
        claims=(
            Claim(
                "figure9.jtp_energy_le_atp",
                "at the longest path, JTP energy per bit <= ATP's x 1.05",
                _compare(
                    "protocol", "jtp", "atp",
                    lambda jtp, atp: jtp["energy_per_bit_uJ"] <= atp["energy_per_bit_uJ"] * 1.05,
                    per="netSize", largest=True,
                ),
            ),
            Claim(
                "figure9.jtp_energy_lt_tcp",
                "at the longest path, JTP energy per bit < TCP's",
                _compare(
                    "protocol", "jtp", "tcp",
                    lambda jtp, tcp: jtp["energy_per_bit_uJ"] < tcp["energy_per_bit_uJ"],
                    per="netSize", largest=True,
                ),
            ),
            Claim(
                "figure9.jtp_goodput_gt_tcp",
                "at the longest path, JTP goodput > TCP's",
                _compare(
                    "protocol", "jtp", "tcp",
                    lambda jtp, tcp: jtp["goodput_kbps"] > tcp["goodput_kbps"],
                    per="netSize", largest=True,
                ),
            ),
            Claim(
                "figure9.energy_grows_with_path",
                "for every protocol, energy per bit at the longest path > at the shortest",
                _figure9_energy_grows,
            ),
        ),
        plot=PlotSpec(
            figure="figure9",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="energy_per_bit_uJ", yerr="energy_per_bit_ci", ylabel="energy per bit [uJ]"),
                AxesSpec(y="goodput_kbps", yerr="goodput_ci", ylabel="goodput [kbit/s]"),
            ),
            title="Figure 9 - JTP vs ATP vs TCP, linear topologies",
        ),
    ),
    FigureJob(
        "figure10",
        "random",
        figure10_plan,
        description="Energy per bit and goodput on static random topologies",
        smoke_kwargs={"net_sizes": (10,), "num_flows": 3, "transfer_bytes": 30_000, "duration": 400},
        claims=(
            Claim(
                "figure10.jtp_energy_lt_tcp",
                "at every net size, JTP energy per bit < TCP's",
                _compare(
                    "protocol", "jtp", "tcp",
                    lambda jtp, tcp: jtp["energy_per_bit_uJ"] < tcp["energy_per_bit_uJ"],
                    per="netSize",
                ),
            ),
            Claim(
                "figure10.jtp_goodput_gt_tcp",
                "at every net size, JTP goodput > TCP's",
                _compare(
                    "protocol", "jtp", "tcp",
                    lambda jtp, tcp: jtp["goodput_kbps"] > tcp["goodput_kbps"],
                    per="netSize",
                ),
            ),
        ),
        plot=PlotSpec(
            figure="figure10",
            x="netSize",
            xlabel="network size [nodes]",
            series=("protocol",),
            axes=(
                AxesSpec(y="energy_per_bit_uJ", yerr="energy_per_bit_ci", ylabel="energy per bit [uJ]"),
                AxesSpec(y="goodput_kbps", yerr="goodput_ci", ylabel="goodput [kbit/s]"),
            ),
            title="Figure 10 - JTP vs ATP vs TCP, static random topologies",
        ),
    ),
    FigureJob(
        "figure11",
        "random",
        figure11_plan,
        description="Energy per bit, goodput and recovery split under mobility",
        smoke_kwargs={"speeds": (1.0,), "num_nodes": 10, "num_flows": 3, "transfer_bytes": 30_000, "duration": 400},
        claims=(
            Claim(
                "figure11.jtp_goodput_gt_tcp",
                "at every node speed, JTP goodput > TCP's",
                _compare(
                    "protocol", "jtp", "tcp",
                    lambda jtp, tcp: jtp["goodput_kbps"] > tcp["goodput_kbps"],
                    per="speed_mps",
                ),
            ),
            Claim(
                "figure11.cache_recovers_under_mobility",
                "some JTP row has cache hits per kpkt > 0",
                _figure11_cache_recovers,
            ),
        ),
        plot=PlotSpec(
            figure="figure11",
            x="speed_mps",
            xlabel="node speed [m/s]",
            series=("protocol",),
            logx=True,
            axes=(
                AxesSpec(y="energy_per_bit_uJ", ylabel="energy per bit [uJ]"),
                AxesSpec(y="goodput_kbps", ylabel="goodput [kbit/s]"),
                AxesSpec(y="source_rtx_per_kpkt", ylabel="source rtx / kpkt"),
                AxesSpec(y="cache_hits_per_kpkt", ylabel="cache hits / kpkt"),
            ),
            title="Figure 11 - mobility: energy, goodput and recovery split",
        ),
    ),
    FigureJob(
        "table2",
        "random",
        table2_plan,
        description="Testbed-like comparison over stable links with a Poisson workload",
        smoke_kwargs={"num_nodes": 8, "duration": 300},
        claims=(
            Claim(
                "table2.jtp_energy_le_atp",
                "JTP energy per bit <= ATP's x 1.1",
                _compare(
                    "protocol", "jtp", "atp",
                    lambda jtp, atp: jtp["energy_per_bit_mJ"] <= atp["energy_per_bit_mJ"] * 1.1,
                ),
            ),
            Claim(
                "table2.jtp_energy_lt_tcp",
                "JTP energy per bit < TCP's",
                _compare(
                    "protocol", "jtp", "tcp",
                    lambda jtp, tcp: jtp["energy_per_bit_mJ"] < tcp["energy_per_bit_mJ"],
                ),
            ),
        ),
        plot=PlotSpec(
            figure="table2",
            x="protocol",
            xlabel="protocol",
            axes=(
                AxesSpec(y="energy_per_bit_mJ", ylabel="energy per bit [mJ]", kind="bar"),
                AxesSpec(y="goodput_kbps", ylabel="goodput [kbit/s]", kind="bar"),
            ),
            title="Table 2 - testbed-like comparison",
        ),
    ),
)

#: The metric figures, batched by ``run_paper`` into one pool submission.
METRIC_FIGURES: Tuple[FigureJob, ...] = tuple(job for job in ALL_FIGURES if job.kind == "metric")
#: The trace figures, run serially in-process by ``run_paper``.
TRACE_FIGURES: Tuple[FigureJob, ...] = tuple(job for job in ALL_FIGURES if job.kind == "trace")
