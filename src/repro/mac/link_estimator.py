"""Per-neighbour link statistics.

The JAVeLEN MAC "keeps statistics about link transmissions and idle
slots in order to provide estimates of the available transmission rate
and of the packet loss rate on every link".  This estimator keeps the
two per-link estimates iJTP reads:

* the packet **loss rate** of the link (used to compute the per-packet
  maximum number of transmission attempts, Eq. 2),
* the **average number of link-layer attempts** per packet, which
  normalises the available rate before it is stamped into packet
  headers (Section 2.1.1).

The third estimate, the **available rate** towards the neighbour, is a
node-level quantity (the node's unused slot share, not one link's), so
the MAC computes it from its own transmission meter
(``TdmaMac.available_rate_pps``); no per-link rate is kept here.
"""

from __future__ import annotations

from repro.util.ewma import EWMA


class LinkEstimator:
    """EWMA-based estimator of one directed link's loss and attempts per packet."""

    def __init__(
        self,
        neighbor_id: int,
        loss_alpha: float = 0.1,
        attempts_alpha: float = 0.2,
        initial_loss: float = 0.1,
    ):
        self.neighbor_id = neighbor_id
        self._loss = EWMA(loss_alpha, initial=initial_loss)
        self._attempts = EWMA(attempts_alpha, initial=1.0)
        self.total_attempts = 0
        self.total_successes = 0
        self.packets_started = 0
        self.packets_delivered = 0

    # -- updates driven by the MAC ----------------------------------------------------

    def record_attempt(self, success: bool) -> None:
        """Record the outcome of one transmission attempt on this link."""
        self.total_attempts += 1
        if success:
            self.total_successes += 1
        self._loss.update(0.0 if success else 1.0)

    def record_packet(self, attempts_used: int, delivered: bool) -> None:
        """Record that a packet finished service after ``attempts_used`` attempts."""
        self.packets_started += 1
        if delivered:
            self.packets_delivered += 1
        self._attempts.update(float(max(1, attempts_used)))

    # -- estimates consumed by iJTP ----------------------------------------------------

    @property
    def loss_rate(self) -> float:
        """Estimated per-attempt loss probability of this link."""
        return min(0.999, max(0.0, self._loss.value_or(0.1)))

    @property
    def average_attempts(self) -> float:
        """Estimated average number of link-layer attempts per packet."""
        return max(1.0, self._attempts.value_or(1.0))

    @property
    def empirical_loss_rate(self) -> float:
        """Loss rate from raw counters (used to validate the EWMA in tests)."""
        if self.total_attempts == 0:
            return 0.0
        return 1.0 - self.total_successes / self.total_attempts

    @property
    def delivery_ratio(self) -> float:
        """Fraction of packets eventually delivered over this link."""
        if self.packets_started == 0:
            return 1.0
        return self.packets_delivered / self.packets_started
