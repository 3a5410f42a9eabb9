"""Tests for traffic sources and the delivery sink."""

import pytest

from repro.traffic.generators import (
    CbrSource,
    SaturatedSource,
    SinkRegistry,
)
from repro.sim.engine import Simulator


class TestSaturatedSource:
    def test_always_has_packet(self):
        s = SaturatedSource(dst=3)
        for _ in range(100):
            assert s.has_packet()
            pkt = s.next_packet()
            assert pkt.dst == 3
        assert s.generated == 100

    def test_payload_size(self):
        s = SaturatedSource(dst=3, payload_bytes=512)
        assert s.next_packet().size_bytes == 512

    def test_packet_ids_unique(self):
        s = SaturatedSource(dst=3)
        ids = {s.next_packet().packet_id for _ in range(50)}
        assert len(ids) == 50


class TestCbrSource:
    def test_rate_and_interval(self):
        sim = Simulator()

        class QueueMac:
            def __init__(self):
                self.packets = []

            def enqueue(self, pkt):
                self.packets.append((sim.now, pkt))

        mac = QueueMac()
        src = CbrSource(sim, mac, dst=1, rate_bps=1.12e6, payload_bytes=1400)
        src.start()
        sim.run(until=0.1)
        # 1.12 Mb/s / (11200 bits) = 100 packets/s -> 10 packets in 0.1 s.
        assert len(mac.packets) == 10
        times = [t for t, _ in mac.packets]
        assert times[1] - times[0] == pytest.approx(0.01)

    def test_stop(self):
        sim = Simulator()

        class QueueMac:
            def __init__(self):
                self.count = 0

            def enqueue(self, pkt):
                self.count += 1

        mac = QueueMac()
        src = CbrSource(sim, mac, dst=1, rate_bps=1.12e6)
        src.start()
        # stop fires before the tick that shares its timestamp (FIFO order),
        # so packets arrive at 0.01..0.04 only.
        sim.call_later(0.05, src.stop)
        sim.run(until=0.2)
        assert mac.count == 4


class TestSinkRegistry:
    def test_duplicate_suppression(self):
        sink = SinkRegistry()
        sink.record(0, 1, packet_id=7, size=1400, now=1.0)
        sink.record(0, 1, packet_id=7, size=1400, now=2.0)
        flow = sink.flows[(0, 1)]
        assert flow.delivered_unique == 1
        assert flow.delivered_dupes == 1

    def test_same_packet_id_different_flows_distinct(self):
        sink = SinkRegistry()
        sink.record(0, 1, 7, 1400, 1.0)
        sink.record(0, 2, 7, 1400, 1.0)
        assert sink.flows[(0, 1)].delivered_unique == 1
        assert sink.flows[(0, 2)].delivered_unique == 1

    def test_measurement_window(self):
        sink = SinkRegistry(measure_from=10.0, measure_until=20.0)
        sink.record(0, 1, 1, 1400, 5.0)    # before window
        sink.record(0, 1, 2, 1400, 15.0)   # inside
        sink.record(0, 1, 3, 1400, 25.0)   # after
        flow = sink.flows[(0, 1)]
        assert flow.delivered_unique == 3
        assert flow.measured_unique == 1
        assert flow.measured_bytes == 1400

    def test_throughput_bps(self):
        sink = SinkRegistry(measure_from=0.0)
        for i in range(10):
            sink.record(0, 1, i, 1400, 0.5)
        assert sink.throughput_bps(0, 1, duration=1.0) == pytest.approx(
            10 * 1400 * 8
        )

    def test_throughput_unknown_flow_is_zero(self):
        assert SinkRegistry().throughput_bps(5, 6, 1.0) == 0.0

    def test_aggregate(self):
        sink = SinkRegistry()
        sink.record(0, 1, 1, 1000, 0.5)
        sink.record(2, 3, 2, 1000, 0.5)
        assert sink.aggregate_throughput_bps(1.0) == pytest.approx(16000)

    def test_sink_for_binds_receiver(self):
        sink = SinkRegistry()
        cb = sink.sink_for(9)
        cb(0, 9, 1, 1400, 0.1)
        assert (0, 9) in sink.flows

    def test_first_last_delivery_times(self):
        sink = SinkRegistry()
        sink.record(0, 1, 1, 1400, 1.0)
        sink.record(0, 1, 2, 1400, 3.0)
        flow = sink.flows[(0, 1)]
        assert flow.first_delivery == 1.0
        assert flow.last_delivery == 3.0
