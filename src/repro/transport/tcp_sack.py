"""Rate-based TCP-SACK baseline.

The paper compares JTP against "a rate-based flavor of TCP-SACK,
whereby the rate of each flow is set by the well-known throughput
equation of TCP" (Padhye et al.), with delayed ACKs (one ACK every two
packets) and SACK-based selective retransmission.  Pacing by the
throughput equation removes window-burstiness artefacts, which is the
most favourable way to run TCP over a low-rate multi-hop network, yet
TCP still pays for its chatty ACK stream, its full-reliability-always
model and its loss-driven congestion signal — which is exactly the
energy story Figure 9 tells.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.core.packet import AckInfo, Packet, PacketType
from repro.sim.network import Network
from repro.sim.stats import FlowStats
from repro.transport.base import FlowHandle, TransportProtocol
from repro.util.ewma import EWMA
from repro.util.validation import clamp, require_positive


@dataclass(frozen=True)
class TcpConfig:
    """Parameters of the rate-based TCP-SACK baseline."""

    packet_size_bytes: float = 800.0
    header_bytes: float = 40.0
    ack_bytes: float = 52.0
    delayed_ack_count: int = 2
    delayed_ack_timeout: float = 0.5
    initial_rate_pps: float = 1.0
    min_rate_pps: float = 0.1
    max_rate_pps: float = 50.0
    initial_rtt: float = 2.0
    min_rto: float = 1.0
    dupack_threshold: int = 3
    loss_event_alpha: float = 0.1

    def __post_init__(self) -> None:
        require_positive(self.packet_size_bytes, "packet_size_bytes")
        require_positive(self.delayed_ack_count, "delayed_ack_count")
        require_positive(self.initial_rtt, "initial_rtt")


def padhye_throughput_pps(loss_rate: float, rtt: float, rto: float, b: int = 2) -> float:
    """The TCP throughput equation of Padhye et al., in packets per second.

    ``T = 1 / (RTT sqrt(2bp/3) + RTO min(1, 3 sqrt(3bp/8)) p (1 + 32 p^2))``

    A loss rate of zero means the equation is unbounded; callers must
    cap the result (the sender caps at its configured maximum rate).
    """
    if rtt <= 0:
        raise ValueError(f"rtt must be positive, got {rtt}")
    if loss_rate <= 0:
        return float("inf")
    p = min(1.0, loss_rate)
    denom = rtt * math.sqrt(2.0 * b * p / 3.0) + rto * min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0)) * p * (
        1.0 + 32.0 * p * p
    )
    if denom <= 0:
        return float("inf")
    return 1.0 / denom


class TcpSackSender:
    """Source endpoint: rate-paced sending, SACK/timeout loss recovery."""

    def __init__(
        self,
        node,
        flow_id: int,
        dst: int,
        transfer_bytes: float,
        config: TcpConfig,
        flow_stats: FlowStats,
        on_complete: Optional[Callable[[float], None]] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.dst = dst
        self.config = config
        self.flow_stats = flow_stats
        self.on_complete = on_complete

        segments: List[float] = []
        remaining = transfer_bytes
        while remaining > 0:
            chunk = min(config.packet_size_bytes, remaining)
            segments.append(chunk)
            remaining -= chunk
        self._segments = segments
        self._pending_new: Deque[int] = deque(range(len(segments)))
        self._outstanding: Dict[int, float] = {}
        self._sent_time: Dict[int, float] = {}
        self._retransmit_queue: Deque[int] = deque()
        self._retransmit_set: Set[int] = set()
        self._miss_counts: Dict[int, int] = {}

        self._srtt = EWMA(0.125, initial=config.initial_rtt)
        self._rttvar = EWMA(0.25, initial=config.initial_rtt / 2.0)
        self._loss_rate = EWMA(config.loss_event_alpha, initial=0.0)
        self._rate_pps = config.initial_rate_pps
        self._send_event = None
        self._timeout_event = None
        self.completed = False
        self.completion_time: Optional[float] = None
        self.loss_events = 0
        self.timeouts = 0

    @property
    def total_packets(self) -> int:
        return len(self._segments)

    @property
    def rate_pps(self) -> float:
        return self._rate_pps

    @property
    def rto(self) -> float:
        return max(self.config.min_rto, self._srtt.value_or(self.config.initial_rtt)
                   + 4.0 * self._rttvar.value_or(self.config.initial_rtt / 2.0))

    def start(self) -> None:
        self.flow_stats.start_time = self.sim.now
        self._schedule_send(0.0)
        self._arm_timeout()

    # -- pacing -----------------------------------------------------------------------------

    def _schedule_send(self, delay: float) -> None:
        if self._send_event is not None:
            self._send_event.cancel()
        self._send_event = self.sim.schedule(delay, self._send_next)

    def _send_next(self) -> None:
        if self.completed:
            return
        seq = self._next_seq()
        if seq is None:
            self._maybe_complete()
            if not self.completed:
                self._schedule_send(max(0.5, 1.0 / self._rate_pps))
            return
        retransmission = seq in self._outstanding
        now = self.sim.now
        packet = Packet(
            flow_id=self.flow_id,
            seq=seq,
            packet_type=PacketType.DATA,
            src=self.node.node_id,
            dst=self.dst,
            payload_bytes=self._segments[seq],
            header_bytes=self.config.header_bytes,
            timestamp=now,
        )
        self._outstanding[seq] = self._segments[seq]
        self._sent_time[seq] = now
        self.node.send(packet)
        self.flow_stats.record_send(now, self._segments[seq], retransmission=retransmission)
        self._schedule_send(1.0 / self._rate_pps)

    def _next_seq(self) -> Optional[int]:
        while self._retransmit_queue:
            seq = self._retransmit_queue.popleft()
            self._retransmit_set.discard(seq)
            if seq in self._outstanding:
                return seq
        if self._pending_new:
            return self._pending_new.popleft()
        return None

    # -- ACK processing -----------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if not packet.is_ack or packet.ack is None:
            return
        ack = packet.ack
        now = self.sim.now

        if ack.echo_timestamp > 0:
            sample = max(0.0, now - ack.echo_timestamp)
            srtt = self._srtt.value_or(sample)
            self._rttvar.update(abs(sample - srtt))
            self._srtt.update(sample)

        # Cumulative ACK and SACK blocks (carried in the locally_recovered
        # field of the shared ACK structure, repurposed as the SACK list).
        newly_acked = [seq for seq in self._outstanding if seq <= ack.cumulative_ack]
        sacked = set(ack.locally_recovered)
        for seq in list(self._outstanding):
            if seq in sacked:
                newly_acked.append(seq)
        for seq in sorted(set(newly_acked)):
            self._outstanding.pop(seq, None)
            self._sent_time.pop(seq, None)
            self._miss_counts.pop(seq, None)
            self._loss_rate.update(0.0)

        # Fast-retransmit style loss detection: a hole below the highest
        # SACKed sequence accumulates "misses"; after the dup-ack
        # threshold it is declared lost and retransmitted.
        # repro: allow[DET002] max over ints is order-independent (total order)
        highest_sacked = max(sacked) if sacked else ack.cumulative_ack
        for seq in list(self._outstanding):
            if seq < highest_sacked and seq not in sacked:
                self._miss_counts[seq] = self._miss_counts.get(seq, 0) + 1
                if self._miss_counts[seq] >= self.config.dupack_threshold and seq not in self._retransmit_set:
                    self._retransmit_queue.append(seq)
                    self._retransmit_set.add(seq)
                    self._miss_counts[seq] = 0
                    self.loss_events += 1
                    self._loss_rate.update(1.0)

        self._update_rate()
        self._arm_timeout()
        self._maybe_complete()

    def _update_rate(self) -> None:
        rate = padhye_throughput_pps(self._loss_rate.value_or(0.0), self._srtt.value_or(self.config.initial_rtt), self.rto)
        self._rate_pps = clamp(rate, self.config.min_rate_pps, self.config.max_rate_pps)

    # -- retransmission timeout ------------------------------------------------------------------

    def _arm_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        self._timeout_event = self.sim.schedule(self.rto, self._on_timeout)

    def _on_timeout(self) -> None:
        if self.completed:
            return
        stale = self._stale_segments(self.sim.now)
        if stale:
            self.timeouts += 1
            self._loss_rate.update(1.0)
            oldest = min(stale)
            if oldest not in self._retransmit_set:
                self._retransmit_queue.append(oldest)
                self._retransmit_set.add(oldest)
            self._update_rate()
        self._arm_timeout()

    def _stale_segments(self, now: float) -> List[int]:
        """Outstanding segments sent at least one RTO before ``now``.

        The RTO is read once per scan, not once per segment: nothing in
        the scan changes it, and a timeout scan can cover a few hundred
        outstanding segments.
        """
        rto = self.rto
        return [seq for seq, sent in self._sent_time.items()
                if seq in self._outstanding and now - sent >= rto]

    def _maybe_complete(self) -> None:
        if self.completed:
            return
        if self._pending_new or self._outstanding or self._retransmit_queue:
            return
        self.completed = True
        self.completion_time = self.sim.now
        self.flow_stats.completion_time = self.sim.now
        if self._send_event is not None:
            self._send_event.cancel()
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        if self.on_complete is not None:
            self.on_complete(self.sim.now)


class TcpSackReceiver:
    """Destination endpoint: delayed cumulative ACKs with SACK blocks."""

    MAX_SACK_REPORT = 32

    def __init__(self, node, flow_id: int, src: int, config: TcpConfig, flow_stats: FlowStats):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.src = src
        self.config = config
        self.flow_stats = flow_stats
        self._received: Set[int] = set()
        self._highest = -1
        self._unacked_arrivals = 0
        self._delayed_event = None
        self._last_timestamp = 0.0

    def start(self) -> None:
        """Nothing to schedule until data arrives."""

    def on_packet(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        now = self.sim.now
        duplicate = packet.seq in self._received
        self.flow_stats.record_delivery(now, packet.payload_bytes, duplicate=duplicate)
        if not duplicate:
            self._received.add(packet.seq)
            self._highest = max(self._highest, packet.seq)
        self._last_timestamp = packet.timestamp
        self._unacked_arrivals += 1
        if self._unacked_arrivals >= self.config.delayed_ack_count:
            self._send_ack()
        elif self._delayed_event is None:
            self._delayed_event = self.sim.schedule(self.config.delayed_ack_timeout, self._delayed_ack_fires)

    def _delayed_ack_fires(self) -> None:
        self._delayed_event = None
        if self._unacked_arrivals > 0:
            self._send_ack()

    def _cumulative_ack(self) -> int:
        cumulative = -1
        for seq in range(self._highest + 1):
            if seq in self._received:
                cumulative = seq
            else:
                break
        return cumulative

    def _send_ack(self) -> None:
        now = self.sim.now
        cumulative = self._cumulative_ack()
        sack_blocks = tuple(sorted(seq for seq in self._received if seq > cumulative))[: self.MAX_SACK_REPORT]
        ack = AckInfo(
            cumulative_ack=cumulative,
            snack=(),
            locally_recovered=sack_blocks,
            echo_timestamp=self._last_timestamp,
        )
        packet = Packet(
            flow_id=self.flow_id,
            seq=cumulative,
            packet_type=PacketType.ACK,
            src=self.node.node_id,
            dst=self.src,
            payload_bytes=0.0,
            header_bytes=self.config.ack_bytes,
            timestamp=now,
            ack=ack,
        )
        self.node.send(packet)
        self.flow_stats.record_ack(packet.size_bytes)
        self._unacked_arrivals = 0
        if self._delayed_event is not None:
            self._delayed_event.cancel()
            self._delayed_event = None


class TcpSackProtocol(TransportProtocol):
    """The TCP-SACK baseline wrapped in the common interface."""

    name = "tcp"

    def __init__(self, config: Optional[TcpConfig] = None):
        self.config = config or TcpConfig()

    def create_flow(
        self,
        network: Network,
        src: int,
        dst: int,
        transfer_bytes: float,
        start_time: float = 0.0,
        flow_id: Optional[int] = None,
    ) -> FlowHandle:
        flow_id = flow_id if flow_id is not None else network.allocate_flow_id()
        flow_stats = FlowStats(flow_id, src, dst, transfer_bytes=transfer_bytes)
        network.stats.register_flow(flow_stats)
        sender = TcpSackSender(network.node(src), flow_id, dst, transfer_bytes, self.config, flow_stats)
        receiver = TcpSackReceiver(network.node(dst), flow_id, src, self.config, flow_stats)
        network.node(src).register_agent(flow_id, sender)
        network.node(dst).register_agent(flow_id, receiver)
        network.sim.schedule_at(max(start_time, network.sim.now), sender.start)
        network.sim.schedule_at(max(start_time, network.sim.now), receiver.start)
        return FlowHandle(flow_id=flow_id, src=src, dst=dst, protocol=self.name,
                          stats=flow_stats, sender=sender, receiver=receiver)
