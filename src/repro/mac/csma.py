"""CSMA/CA media access variant.

The paper notes (footnote 3) that JTP does not require a collision-free
MAC: over a contention-based MAC, collisions simply appear as extra
link loss, which inflates the number of link-layer retransmissions per
packet, deflates the measured available bandwidth and therefore makes
sources back off.  This module provides a deliberately simple CSMA/CA
model so that claim can be exercised: nodes contend for a shared
medium, and the probability that an attempt is destroyed by a collision
grows with the number of other transmitters currently active in the
neighbourhood.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.mac.tdma import MacConfig, TdmaMac
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.stats import NetworkStats
from repro.sim.trace import TraceRecorder
from repro.util.validation import require_in_range


class SharedMedium:
    """Tracks how many CSMA transmitters are active at any instant.

    One instance is shared by all :class:`CsmaMac` objects in a network;
    each attempt registers itself for its airtime so that concurrent
    attempts can collide with each other.
    """

    def __init__(self) -> None:
        self._active = 0
        self.peak_active = 0

    @property
    def active_transmitters(self) -> int:
        return self._active

    def begin_transmission(self) -> int:
        """Register a transmitter; returns the number of *other* active ones."""
        others = self._active
        self._active += 1
        self.peak_active = max(self.peak_active, self._active)
        return others

    def end_transmission(self) -> None:
        if self._active <= 0:
            raise RuntimeError("end_transmission called with no active transmitters")
        self._active -= 1


class CsmaMac(TdmaMac):
    """A contention-based MAC built on the TDMA machinery.

    Differences from :class:`TdmaMac`:

    * nodes use the full channel rate (no slot share) but add a random
      contention backoff before every attempt;
    * each attempt can additionally be lost to a collision, with
      probability ``1 - (1 - collision_base) ** other_active``.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        channel: Channel,
        stats: NetworkStats,
        medium: SharedMedium,
        config: Optional[MacConfig] = None,
        trace: Optional[TraceRecorder] = None,
        rng: Optional[random.Random] = None,
        collision_base: float = 0.15,
        max_backoff: float = 0.02,
    ):
        super().__init__(node_id, sim, channel, stats, config=config, trace=trace)
        self.medium = medium
        self.collision_base = require_in_range(collision_base, 0.0, 1.0, "collision_base")
        self.max_backoff = max_backoff
        # Network always passes a stream-derived rng (see Network._build);
        # the node-id fallback only covers direct construction in unit
        # tests, where determinism-per-node is the point.  Pinned by
        # test_checks.py::TestSeedFlowJustifications.
        # repro: allow[SEED001] fallback unused by Network; stream rng is always injected
        self._rng = rng or random.Random(node_id)
        self.collisions = 0

    def _service_time(self, packet: object) -> float:
        """Airtime plus a random contention backoff (no slot-share scaling)."""
        nbits = self._packet_bits(packet)
        airtime = self.config.energy.airtime(nbits) + self.config.guard_time
        return airtime + self._rng.uniform(0.0, self.max_backoff)

    def _attempt(self, packet: object, next_hop: int, attempt_no: int, attempts_allowed: int) -> None:
        if not self.active:
            # Mirror the base guard before touching the shared medium:
            # a down node must not register as a contending transmitter.
            self._dropped(packet, "node_down")
            self._busy = False
            return
        others = self.medium.begin_transmission()
        try:
            collision_probability = 1.0 - (1.0 - self.collision_base) ** others
            if others > 0 and self._rng.random() < collision_probability:
                self._attempt_collided(packet, next_hop, attempt_no, attempts_allowed)
                return
            super()._attempt(packet, next_hop, attempt_no, attempts_allowed)
        finally:
            self.medium.end_transmission()

    def _attempt_collided(self, packet: object, next_hop: int, attempt_no: int, attempts_allowed: int) -> None:
        """Handle an attempt destroyed by a collision: energy is still spent."""
        now = self.sim.now
        tx_energy, _rx_energy, _slot_service_time, frame_time = self._attempt_costs(self._packet_bits(packet))
        flow_id = getattr(packet, "flow_id", -1)
        self._energy_meter.record_tx(flow_id, tx_energy)
        self._charge_packet_energy(packet, tx_energy)
        self._node_tx_rate.record(now, 1.0)
        self.collisions += 1

        estimator = self.link_estimator(next_hop)
        estimator.record_attempt(False)
        self.stats.record_link_attempt(False)
        self.trace.record("mac_collision", now, node=self.node_id, neighbor=next_hop, flow=flow_id)

        # _service_time(packet), from the cached frame time.
        service_time = frame_time + self._rng.uniform(0.0, self.max_backoff)
        if attempt_no < attempts_allowed:
            self.sim.schedule(service_time, self._retry, self._epoch, packet, next_hop, attempt_no + 1, attempts_allowed)
        else:
            estimator.record_packet(attempt_no, delivered=False)
            self._dropped(packet, "link_exhausted")
            self.sim.schedule(service_time, self._service_next)

    def describe(self) -> str:
        return f"CSMA MAC node={self.node_id} collisions={self.collisions}"
