"""The fault-injection engine: plans, determinism, teardown, degradation.

Four layers of guarantees, roughly in order:

* **Plan validation** — a :class:`FaultPlan` is checked at construction,
  not at apply time, so a bad schedule fails before any simulation runs.
* **Determinism** — stochastic plans materialise identically for the
  same seed, an *empty* plan is bit-identical to no plan at all, and
  fault traces reproduce run-to-run.
* **Semantics** — crash tears down in-network soft state (MAC queue,
  iJTP cache) while pause keeps it; partitions/links block connectivity
  with refcount stacking; the routing layer's unchanged-snapshot
  Dijkstra skip re-converges across a partition/heal cycle (the
  regression this suite exists to pin).
* **Graceful degradation** — every registered protocol survives a dense
  combined fault plan without an unhandled exception: faults degrade
  metrics, never crash the run.
"""

import pickle

import pytest

from repro.experiments.scenarios import linear_scenario
from repro.sim.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultProcess,
)
from repro.sim.network import Network
from repro.transport.registry import available_protocols, make_protocol


def _linear_network(num_nodes=6, seed=1):
    from repro.experiments.scenarios import PAPER_LINK_QUALITY

    return Network.linear(num_nodes, seed=seed, link_quality=PAPER_LINK_QUALITY)


def _with_jtp_flow(network, transfer_bytes=30_000.0, num_flows=1):
    protocol = make_protocol("jtp", None)
    protocol.install(network)
    last = network.num_nodes - 1
    for index in range(num_flows):
        protocol.create_flow(network, 0, last, transfer_bytes, start_time=index * 5.0)
    return protocol


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=1.0, kind="meteor", nodes=(1,))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(time=-1.0, kind="crash", nodes=(1,))

    def test_node_kind_needs_nodes(self):
        with pytest.raises(ValueError, match="target node"):
            FaultEvent(time=1.0, kind="crash")

    def test_link_kind_needs_links(self):
        with pytest.raises(ValueError, match="target link"):
            FaultEvent(time=1.0, kind="link_down")

    def test_duration_only_on_timed_kinds(self):
        with pytest.raises(ValueError, match="cannot carry a duration"):
            FaultEvent(time=1.0, kind="recover", nodes=(1,), duration=5.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="duration must be > 0"):
            FaultEvent(time=1.0, kind="crash", nodes=(1,), duration=0.0)

    def test_regime_values_checked(self):
        with pytest.raises(ValueError, match="regime must be one of"):
            FaultEvent(time=1.0, kind="regime", regime="terrible")

    def test_timed_regime_must_force_a_state(self):
        with pytest.raises(ValueError, match="must force a state"):
            FaultEvent(time=1.0, kind="regime", duration=5.0)


class TestFaultProcessValidation:
    def test_untimed_kind_rejected(self):
        with pytest.raises(ValueError, match="timed kind"):
            FaultProcess(kind="recover", rate=0.1, mean_duration=5.0, until=100.0, nodes=(1,))

    def test_rate_and_duration_positive(self):
        with pytest.raises(ValueError, match="rate"):
            FaultProcess(kind="crash", rate=0.0, mean_duration=5.0, until=100.0, nodes=(1,))
        with pytest.raises(ValueError, match="mean_duration"):
            FaultProcess(kind="crash", rate=0.1, mean_duration=0.0, until=100.0, nodes=(1,))

    def test_window_ordering_checked(self):
        with pytest.raises(ValueError, match="start < until"):
            FaultProcess(
                kind="crash", rate=0.1, mean_duration=5.0, until=10.0, start=10.0, nodes=(1,)
            )

    def test_targeted_kinds_need_a_pool(self):
        with pytest.raises(ValueError, match="candidate node pool"):
            FaultProcess(kind="crash", rate=0.1, mean_duration=5.0, until=100.0)
        with pytest.raises(ValueError, match="candidate link pool"):
            FaultProcess(kind="link_down", rate=0.1, mean_duration=5.0, until=100.0)


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.blackout(10.0, 5.0)

    def test_lists_are_coerced_to_tuples(self):
        plan = FaultPlan(
            events=[FaultEvent(time=1.0, kind="crash", nodes=(1,))],
            processes=[
                FaultProcess(kind="crash", rate=0.1, mean_duration=5.0, until=9.0, nodes=(1,))
            ],
        )
        assert isinstance(plan.events, tuple)
        assert isinstance(plan.processes, tuple)

    def test_plan_is_picklable_and_repr_deterministic(self):
        # Both properties are load-bearing: the plan travels inside
        # ScenarioSpec params across process boundaries (pickle) and
        # keys the incremental cell cache (repr).
        plan = FaultPlan(
            events=(FaultEvent(time=30.0, kind="partition", nodes=(0, 1), duration=10.0),),
            processes=(
                FaultProcess(kind="crash", rate=0.01, mean_duration=20.0, until=200.0, nodes=(1, 2)),
            ),
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert repr(clone) == repr(plan)

    def test_convenience_constructors(self):
        partition = FaultPlan.single_partition((0, 1), start=30.0, outage=10.0)
        assert partition.events[0].kind == "partition"
        assert partition.events[0].duration == 10.0

        churn = FaultPlan.node_churn((1, 2, 3), rate=0.01, mean_downtime=20.0, until=300.0)
        assert churn.processes[0].kind == "crash"

        flapping = FaultPlan.link_flapping(((0, 1),), rate=0.05, mean_outage=3.0, until=300.0)
        assert flapping.processes[0].kind == "link_down"

        blackout = FaultPlan.blackout(start=60.0, outage=30.0)
        assert blackout.events[0].kind == "regime"
        assert blackout.events[0].regime == "bad"

    def test_taxonomy_is_closed(self):
        # Every kind the engine dispatches on is declared, and vice versa.
        assert set(FAULT_KINDS) == {
            "crash", "recover", "pause", "resume",
            "link_down", "link_up", "partition", "heal", "regime",
        }


class TestMaterialize:
    def test_fixed_events_sorted_with_stable_ties(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=50.0, kind="crash", nodes=(1,)),
                FaultEvent(time=10.0, kind="pause", nodes=(2,)),
                FaultEvent(time=50.0, kind="recover", nodes=(1,)),
            )
        )
        network = _linear_network()
        schedule = network.install_fault_plan(plan).materialize()
        assert [event.time for event in schedule] == [10.0, 50.0, 50.0]
        # Ties keep declaration order: the crash comes before its recover.
        assert [event.kind for event in schedule[1:]] == ["crash", "recover"]

    def test_same_seed_materializes_identically(self):
        plan = FaultPlan.node_churn((1, 2, 3, 4), rate=0.02, mean_downtime=20.0, until=500.0)
        schedules = [
            _linear_network(seed=7).install_fault_plan(plan).materialize() for _ in range(2)
        ]
        assert schedules[0] == schedules[1]
        assert schedules[0], "the churn process materialised no events at all"

    def test_different_seed_materializes_differently(self):
        plan = FaultPlan.node_churn((1, 2, 3, 4), rate=0.02, mean_downtime=20.0, until=500.0)
        one = _linear_network(seed=7).install_fault_plan(plan).materialize()
        other = _linear_network(seed=8).install_fault_plan(plan).materialize()
        assert one != other

    def test_double_install_rejected(self):
        network = _linear_network()
        injector = network.install_fault_plan(FaultPlan())
        with pytest.raises(RuntimeError, match="already"):
            injector.install()
        with pytest.raises(RuntimeError):
            network.install_fault_plan(FaultPlan())


class TestFaultApplication:
    def test_crash_recover_window_and_counters(self):
        network = _linear_network(4)
        plan = FaultPlan(events=(FaultEvent(time=10.0, kind="crash", nodes=(1,), duration=20.0),))
        injector = network.install_fault_plan(plan)
        network.run(60.0)
        assert injector.counters == {"crash": 1, "recover": 1}
        assert injector.applied_events == 2
        assert injector.outage_windows_until(60.0) == ((10.0, 30.0),)
        assert injector.total_outage_seconds(60.0) == pytest.approx(20.0)
        assert injector.heal_times_until(60.0) == (30.0,)
        assert not injector.faults_active

    def test_idempotent_faults_are_not_counted(self):
        network = _linear_network(4)
        plan = FaultPlan(
            events=(
                FaultEvent(time=10.0, kind="crash", nodes=(1,)),
                FaultEvent(time=20.0, kind="crash", nodes=(1,)),  # no-op: already down
                FaultEvent(time=25.0, kind="heal", nodes=(1,)),  # no-op: never partitioned
                FaultEvent(time=30.0, kind="recover", nodes=(1,)),
            )
        )
        injector = network.install_fault_plan(plan)
        network.run(60.0)
        assert injector.counters == {"crash": 1, "recover": 1}
        assert injector.applied_events == 2

    def test_open_window_is_capped_at_end_of_run(self):
        network = _linear_network(4)
        plan = FaultPlan(events=(FaultEvent(time=10.0, kind="crash", nodes=(1,)),))
        injector = network.install_fault_plan(plan)
        network.run(50.0)
        assert injector.faults_active
        assert injector.outage_windows_until(50.0) == ((10.0, 50.0),)
        # A still-open window is not a heal: recovery starts at heals only.
        assert injector.heal_times_until(50.0) == ()

    def test_downed_node_leaves_the_neighbor_sets(self):
        network = _linear_network(4)
        plan = FaultPlan(events=(FaultEvent(time=10.0, kind="crash", nodes=(1,), duration=20.0),))
        network.install_fault_plan(plan)
        observed = {}
        network.sim.schedule_at(20.0, lambda: observed.__setitem__("down", network.channel.neighbors_of(0)))
        network.sim.schedule_at(40.0, lambda: observed.__setitem__("up", network.channel.neighbors_of(0)))
        network.run(60.0)
        assert observed["down"] == set()
        assert observed["up"] == {1}

    def test_link_blocks_stack_with_partitions(self):
        # A link_down overlapping a partition that cuts the same link:
        # the heal releases the partition's block, the link stays down
        # until its own link_up (refcounted, not boolean).
        network = _linear_network(4)
        plan = FaultPlan(
            events=(
                FaultEvent(time=10.0, kind="link_down", links=((1, 2),), duration=40.0),
                FaultEvent(time=20.0, kind="partition", nodes=(0, 1), duration=10.0),
            )
        )
        network.install_fault_plan(plan)
        observed = {}
        network.sim.schedule_at(35.0, lambda: observed.__setitem__("healed", network.channel.neighbors_of(1)))
        network.sim.schedule_at(55.0, lambda: observed.__setitem__("restored", network.channel.neighbors_of(1)))
        network.run(70.0)
        assert observed["healed"] == {0}  # partition healed, the flapped link still down
        assert observed["restored"] == {0, 2}

    def test_crash_clears_the_ijtp_cache_but_pause_keeps_it(self):
        from repro.core.connection import ensure_ijtp_installed
        from repro.core.packet import Packet, PacketType

        network = _linear_network(4)
        modules = ensure_ijtp_installed(network)
        plan = FaultPlan(
            events=(
                FaultEvent(time=10.0, kind="pause", nodes=(1,), duration=5.0),
                FaultEvent(time=30.0, kind="crash", nodes=(1,), duration=5.0),
            )
        )
        network.install_fault_plan(plan)
        cache = modules[1].cache
        cache.insert(
            Packet(flow_id=7, seq=1, packet_type=PacketType.DATA, src=0, dst=3, payload_bytes=800.0)
        )
        observed = {}
        network.sim.schedule_at(12.0, lambda: observed.__setitem__("paused", len(cache)))
        network.sim.schedule_at(32.0, lambda: observed.__setitem__("crashed", len(cache)))
        network.run(50.0)
        assert observed["paused"] == 1  # pause keeps soft state
        assert observed["crashed"] == 0  # crash loses it

    def test_scenario_metrics_carry_the_resilience_fields(self):
        plan = FaultPlan.single_partition((0, 1, 2), start=60.0, outage=20.0)
        result = linear_scenario(
            6, protocol="jtp", fault_plan=plan, transfer_bytes=30_000, num_flows=1, duration=240.0, seed=1
        )
        metrics = result.metrics
        assert metrics.fault_events == 2
        assert metrics.fault_outage_seconds == pytest.approx(20.0)
        assert 0.0 <= metrics.outage_delivery_ratio <= 2.0
        assert metrics.post_heal_recovery_seconds >= 0.0

    def test_blackout_forces_the_bad_regime_window(self):
        plan = FaultPlan.blackout(start=60.0, outage=30.0)
        result = linear_scenario(
            6, protocol="jtp", fault_plan=plan, transfer_bytes=30_000, num_flows=1, duration=240.0, seed=1
        )
        assert result.metrics.fault_events == 2  # force + restore
        assert result.metrics.fault_outage_seconds == pytest.approx(30.0)


class TestRoutingReconvergence:
    """The per-generation tree cache across a partition/heal cycle.

    ``LinkStateRouting.refresh_all_views`` keeps the held view and its
    per-node shortest-path trees (hop counts and first hops) whenever the
    channel's connectivity snapshot is unchanged — the steady state of
    every static topology.  A fault plan breaks exactly that assumption
    mid-run: the partition must drop the trees behind ``hops_to`` and
    ``next_hop``, and the heal must drop them *again* rather than serving
    the partitioned answer from a stale cache.
    """

    def test_hops_and_reachability_follow_a_partition_heal_cycle(self):
        network = _linear_network(6)
        plan = FaultPlan.single_partition((0, 1, 2), start=30.0, outage=30.0)
        network.install_fault_plan(plan)
        routing = network.routing
        observed = {}

        def probe(label):
            routing.refresh_all_views()
            observed[label] = (routing.hops_to(0, 5), routing.is_reachable(0, 5))

        network.sim.schedule_at(10.0, lambda: probe("before"))
        network.sim.schedule_at(40.0, lambda: probe("during"))
        network.sim.schedule_at(80.0, lambda: probe("after"))
        network.run(100.0)

        assert observed["before"] == (5, True)
        assert observed["during"] == (None, False)
        assert observed["after"] == (5, True)

    def test_both_sides_of_the_cut_see_the_partition(self):
        network = _linear_network(6)
        plan = FaultPlan.single_partition((0, 1, 2), start=30.0, outage=30.0)
        network.install_fault_plan(plan)
        routing = network.routing
        observed = {}

        def probe(label):
            routing.refresh_all_views()
            observed[label] = (
                routing.hops_to(5, 0),  # far side looking in
                routing.hops_to(1, 2),  # within the cut group
                routing.hops_to(3, 5),  # within the remainder
            )

        network.sim.schedule_at(40.0, lambda: probe("during"))
        network.sim.schedule_at(80.0, lambda: probe("after"))
        network.run(100.0)

        assert observed["during"] == (None, 1, 2)
        assert observed["after"] == (5, 1, 2)


class TestDeterminism:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        # The seam itself must cost no RNG draws and no event-schedule
        # changes: installing an *empty* plan leaves both the event
        # trajectory and every metric exactly as without an injector.
        results = [
            linear_scenario(
                6,
                protocol="jtp",
                transfer_bytes=40_000,
                num_flows=2,
                duration=300.0,
                seed=3,
                fault_plan=fault_plan,
            )
            for fault_plan in (None, FaultPlan())
        ]
        assert results[0].network.sim.events_processed == results[1].network.sim.events_processed
        assert results[0].metrics == results[1].metrics

    def test_fault_trace_reproduces_run_to_run(self):
        plan = FaultPlan.node_churn((1, 2, 3, 4), rate=0.01, mean_downtime=20.0, until=240.0)
        traces = []
        for _ in range(2):
            result = linear_scenario(
                6,
                protocol="jtp",
                transfer_bytes=30_000,
                num_flows=1,
                duration=300.0,
                seed=5,
                trace_enabled=True,
                fault_plan=plan,
            )
            traces.append(repr(result.network.trace.events("fault")))
        assert traces[0] == traces[1]

    def test_different_seeds_draw_different_fault_schedules(self):
        plan = FaultPlan.node_churn((1, 2, 3, 4), rate=0.02, mean_downtime=20.0, until=400.0)
        schedules = [
            linear_scenario(
                6,
                protocol="jtp",
                transfer_bytes=30_000,
                num_flows=1,
                duration=450.0,
                seed=seed,
                trace_enabled=True,
                fault_plan=plan,
            ).network.trace.events("fault")
            for seed in (5, 6)
        ]
        assert repr(schedules[0]) != repr(schedules[1])


#: A dense combined plan exercising every fault family in one run.
_COMBINED_PLAN = FaultPlan(
    events=(
        FaultEvent(time=60.0, kind="partition", nodes=(0, 1, 2), duration=30.0),
        FaultEvent(time=100.0, kind="crash", nodes=(3,), duration=40.0),
        FaultEvent(time=150.0, kind="regime", regime="bad", duration=20.0),
        FaultEvent(time=180.0, kind="pause", nodes=(2,), duration=15.0),
    ),
    processes=(
        FaultProcess(
            kind="link_down",
            rate=0.02,
            mean_duration=5.0,
            until=240.0,
            links=tuple((i, i + 1) for i in range(5)),
        ),
    ),
)


class TestGracefulDegradation:
    """No shipped fault workload may surface an unhandled protocol exception."""

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_every_protocol_survives_a_dense_fault_plan(self, protocol):
        result = linear_scenario(
            6,
            protocol=protocol,
            transfer_bytes=40_000,
            num_flows=2,
            duration=300.0,
            seed=2,
            fault_plan=_COMBINED_PLAN,
        )
        metrics = result.metrics
        assert metrics.fault_events > 0
        assert metrics.fault_outage_seconds > 0.0
        assert 0.0 <= metrics.delivered_fraction <= 1.0
        assert metrics.energy_joules >= 0.0

    def test_crashed_endpoints_do_not_crash_the_run(self):
        # Faults may strike the source and the sink themselves.
        plan = FaultPlan(
            events=(
                FaultEvent(time=40.0, kind="crash", nodes=(0,), duration=30.0),
                FaultEvent(time=120.0, kind="crash", nodes=(5,), duration=30.0),
            )
        )
        result = linear_scenario(
            6, protocol="jtp", transfer_bytes=40_000, num_flows=2, duration=300.0, seed=4,
            fault_plan=plan,
        )
        assert result.metrics.fault_events == 4
