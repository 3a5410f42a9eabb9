"""Tests for the 802.11 DCF baseline MAC."""

import numpy as np
import pytest

from repro.mac.base import Packet
from repro.mac.dcf import DcfMac, DcfParams
from repro.phy.frames import BROADCAST
from repro.phy.medium import Medium
from repro.phy.modulation import Phy80211a, SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import SaturatedSource, SinkRegistry
from repro.util.rng import RngFactory


def build_net(positions, params=None, measure_from=0.0):
    sim = Simulator()
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(9)
    sink = SinkRegistry(measure_from=measure_from)
    macs = {}
    for node_id in positions:
        radio = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(radio)
        mac = DcfMac(sim, node_id, radio, rngs.stream("mac", node_id),
                     params or DcfParams())
        mac.attach_sink(sink.sink_for(node_id))
        macs[node_id] = mac
    return sim, medium, macs, sink


class TestSingleLink:
    def test_one_packet_delivered_and_acked(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].enqueue(Packet(dst=1, size_bytes=1400))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.1)
        assert macs[0].stats.acks_received == 1
        assert sink.flows[(0, 1)].delivered_unique == 1

    def test_saturated_throughput_near_5mbps(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=2.0)
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        assert 4.5 < mbps < 5.6  # paper §4.2: 5.07 Mb/s

    def test_throughput_matches_dcf_arithmetic(self):
        """Cross-check against the analytic DCF cycle time."""
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=2.0)
        p = DcfParams()
        cycle = (
            p.difs
            + 7.5 * p.slot  # mean backoff, CW=15
            + Phy80211a.airtime(1428, p.data_rate)
            + p.sifs
            + Phy80211a.airtime(14, p.ack_rate)
        )
        expected = 1400 * 8 / cycle / 1e6
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        assert mbps == pytest.approx(expected, rel=0.1)

    def test_no_duplicates_on_clean_channel(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.5)
        assert sink.flows[(0, 1)].delivered_dupes == 0


class TestRetransmission:
    def test_dead_link_drops_after_retry_limit(self):
        params = DcfParams(retry_limit=3)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(500, 0)}, params=params
        )
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=2.0)
        assert macs[0].stats.packets_dropped == 1
        assert macs[0].stats.retransmissions == 3

    def test_acks_disabled_no_retransmissions(self):
        params = DcfParams(acks=False)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(500, 0)}, params=params
        )
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=1.0)
        assert macs[0].stats.retransmissions == 0
        assert macs[0].stats.ack_timeouts == 0


class TestCarrierSenseSharing:
    def test_two_inrange_senders_share_medium(self):
        positions = {0: Position(0, 0), 1: Position(20, 0),
                     2: Position(10, 10), 3: Position(30, 10)}
        sim, medium, macs, sink = build_net(positions)
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[2].attach_source(SaturatedSource(dst=3))
        for m in macs.values():
            m.start()
        sim.run(until=2.0)
        f1 = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        f2 = sink.flows[(2, 3)].bytes_unique * 8 / 2.0 / 1e6
        total = f1 + f2
        assert 4.0 < total < 5.8  # near single-link rate
        # rough fairness through random backoff
        assert min(f1, f2) / max(f1, f2) > 0.4

    def test_cs_disabled_senders_collide(self):
        # Receivers equidistant from both senders: SINR ~0 dB, no capture.
        positions = {0: Position(0, 0), 1: Position(20, -10),
                     2: Position(40, 0), 3: Position(20, 10)}
        params = DcfParams(carrier_sense=False, acks=False)
        sim, medium, macs, sink = build_net(positions, params=params)
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[2].attach_source(SaturatedSource(dst=3))
        for m in macs.values():
            m.start()
        sim.run(until=1.0)
        f1 = sink.flows.get((0, 1))
        f2 = sink.flows.get((2, 3))
        total = sum(f.bytes_unique for f in (f1, f2) if f) * 8 / 1.0 / 1e6
        # Heavy collisions: far below the shared-medium rate.
        assert total < 3.0


class TestBroadcast:
    def test_broadcast_no_ack_all_receivers(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(0, 20)}
        sim, medium, macs, sink = build_net(positions)
        macs[0].enqueue(Packet(dst=BROADCAST))
        for m in macs.values():
            m.start()
        sim.run(until=0.1)
        assert sink.flows[(0, 1)].delivered_unique == 1
        assert sink.flows[(0, 2)].delivered_unique == 1
        assert macs[0].stats.ack_timeouts == 0


class TestBackoffEscalation:
    def test_cw_doubles_on_ack_timeouts(self):
        params = DcfParams(retry_limit=10)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(500, 0)}, params=params
        )
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        sim.run(until=0.05)
        assert macs[0]._cw > params.cw_min

    def test_cw_capped_at_max(self):
        params = DcfParams(retry_limit=20, cw_max=255)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(500, 0)}, params=params
        )
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        sim.run(until=3.0)
        assert macs[0]._cw <= 255


class TestBackoffDraw:
    """The backoff draw replays numpy's bounded-integer rejection over the
    stream's next_uint32: lockstep with ``Generator.integers(0, cw + 1)``
    on a twin stream, also when other kinds of draw interleave."""

    CWS = (0, 1, 15, 1023, 2, 2**31)  # 2**31: about half the words reject

    @staticmethod
    def _draw(mac, cw):
        """Run one contention start of ``mac`` with window ``cw``."""
        from repro.mac.dcf import _State

        mac._state = _State.IDLE
        mac._current = Packet(dst=1, size_bytes=100)
        mac._backoff_slots = None
        mac._need_post_backoff = True
        mac._cw = cw
        mac._maybe_begin()
        return mac._backoff_slots

    @staticmethod
    def _mac(rng):
        sim = Simulator()
        rss = RssMatrix(LogDistance(exponent=3.3), {0: Position(0, 0)}, 18.0)
        medium = Medium(sim, rss)
        radio = Radio(
            sim, 0, RadioConfig(error_model=SinrThresholdErrorModel(), fading=None),
            np.random.default_rng(0),
        )
        medium.attach(radio)
        mac = DcfMac(sim, 0, radio, rng)
        mac._started = True
        return mac

    @pytest.mark.parametrize("seed", range(5))
    def test_lockstep_with_generator_integers(self, seed):
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        mac = self._mac(rng)
        assert mac._next_u32 is not None
        for i in range(3000):
            cw = self.CWS[i % len(self.CWS)]
            assert self._draw(mac, cw) == int(twin.integers(0, cw + 1)), i
            if i % 3 == 0:
                assert rng.random() == twin.random()
            if i % 5 == 0:
                assert rng.standard_normal() == twin.standard_normal()
        assert rng.integers(0, 2**40) == twin.integers(0, 2**40)

    def test_reference_kernels_keep_generator_integers(self):
        from repro.kernels.backend import reference_kernels

        with reference_kernels():
            mac = self._mac(np.random.default_rng(3))
        assert mac._next_u32 is None
        twin = np.random.default_rng(3)
        for cw in self.CWS:
            assert self._draw(mac, cw) == int(twin.integers(0, cw + 1))
