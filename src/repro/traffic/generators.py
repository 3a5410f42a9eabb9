"""Traffic sources and the delivery sink.

The paper's workloads (§5.1): "all senders transmit 1400-byte data packets
... as fast as they can", i.e. saturated sources; throughput is counted as
*non-duplicate* data packets per second at the designated receivers over the
measurement window (they use the last 60 s of each 100 s run to skip
convergence transients).

* :class:`SaturatedSource` — pull source that always has another packet;
* :class:`CbrSource` — pushes packets at a fixed rate (for latency tests);
* :class:`SinkRegistry` — network-wide duplicate-suppressing delivery log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mac.base import MacBase, Packet


class SaturatedSource:
    """Always has another ``payload_bytes`` packet for ``dst``."""

    def __init__(self, dst: int, payload_bytes: int = 1400):
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.generated = 0

    def has_packet(self) -> bool:
        return True

    def next_packet(self) -> Packet:
        self.generated += 1
        return Packet(self.dst, self.payload_bytes)


class CbrSource:
    """Pushes packets into a MAC at a constant bit rate."""

    def __init__(
        self,
        sim,
        mac: MacBase,
        dst: int,
        rate_bps: float,
        payload_bytes: int = 1400,
    ):
        self.sim = sim
        self.mac = mac
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.interval = payload_bytes * 8.0 / rate_bps
        self.generated = 0
        self._stopped = False

    def start(self) -> None:
        self.sim.schedule_call(self.interval, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.generated += 1
        self.mac.enqueue(Packet(dst=self.dst, size_bytes=self.payload_bytes))
        self.sim.schedule_call(self.interval, self._tick)


@dataclass
class FlowRecord:
    """Delivery accounting for one (src, dst) flow."""

    src: int
    dst: int
    delivered_unique: int = 0
    delivered_dupes: int = 0
    bytes_unique: int = 0
    first_delivery: Optional[float] = None
    last_delivery: Optional[float] = None
    #: Unique deliveries inside the measurement window only.
    measured_unique: int = 0
    measured_bytes: int = 0
    #: Inter-delivery gaps (seconds) inside the measurement window; the
    #: delivery-smoothness analogue of per-packet latency for saturated
    #: link-layer flows (bursty MACs like CMAP deliver 32 packets at once,
    #: then pause — visible here as a heavy gap tail).
    delivery_gaps: List[float] = field(default_factory=list)
    _last_measured: Optional[float] = None

    def gap_percentile(self, q: float) -> float:
        """q-th percentile (0-100) of inter-delivery gaps."""
        if not self.delivery_gaps:
            return 0.0
        ordered = sorted(self.delivery_gaps)
        idx = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[idx]


class SinkRegistry:
    """Network-wide duplicate-suppressing delivery log.

    One instance is shared by all nodes in a run; each MAC's sink callback
    points here. Throughput over the measurement window matches the paper's
    metric: non-duplicate data packets per second at designated receivers,
    computed over the post-warmup portion of the run.
    """

    def __init__(self, measure_from: float = 0.0, measure_until: float = float("inf")):
        self.measure_from = measure_from
        self.measure_until = measure_until
        self._seen: Set[Tuple[int, int, int]] = set()
        self.flows: Dict[Tuple[int, int], FlowRecord] = {}

    def sink_for(self, node_id: int):
        """The callback to attach to ``node_id``'s MAC."""
        return self.record

    def record(self, src: int, dst: int, packet_id: int, size: int, now: float) -> None:
        flow_key = (src, dst)
        flow = self.flows.get(flow_key)
        if flow is None:
            flow = self.flows[flow_key] = FlowRecord(src, dst)
        key = (src, dst, packet_id)
        if key in self._seen:
            flow.delivered_dupes += 1
            return
        self._seen.add(key)
        flow.delivered_unique += 1
        flow.bytes_unique += size
        if flow.first_delivery is None:
            flow.first_delivery = now
        flow.last_delivery = now
        if self.measure_from <= now <= self.measure_until:
            flow.measured_unique += 1
            flow.measured_bytes += size
            if flow._last_measured is not None:
                flow.delivery_gaps.append(now - flow._last_measured)
            flow._last_measured = now

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def throughput_bps(self, src: int, dst: int, duration: float) -> float:
        """Measured-window throughput of one flow in bits/second."""
        flow = self.flows.get((src, dst))
        if flow is None or duration <= 0:
            return 0.0
        return flow.measured_bytes * 8.0 / duration

    def aggregate_throughput_bps(self, duration: float) -> float:
        """Sum of measured-window throughput over all flows."""
        if duration <= 0:
            return 0.0
        total_bytes = sum(f.measured_bytes for f in self.flows.values())
        return total_bytes * 8.0 / duration

    def flow_list(self) -> List[FlowRecord]:
        return list(self.flows.values())
