"""Tests for the CMAP MAC (paper §2–§4), run over the real radio/medium."""

import pytest

from repro.core.cmap_mac import CmapMac, _State
from repro.core.params import CmapParams, LatencyProfile
from repro.mac.base import Packet
from repro.net.testbed import Testbed
from repro.network import Network, cmap_factory
from repro.phy.frames import BROADCAST
from repro.phy.medium import Medium
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import SaturatedSource, SinkRegistry
from repro.util.rng import RngFactory


def fast_params(**kw):
    """CMAP with hardware latency and small virtual packets: quick tests."""
    defaults = dict(
        nvpkt=4,
        nwindow=3,
        latency=LatencyProfile.hardware(),
        t_ackwait=0.5e-3,
        t_deferwait=0.5e-3,
        ilist_period=0.05,
        interf_min_samples=8,
    )
    defaults.update(kw)
    return CmapParams(**defaults)


def build_net(positions, params=None, seed=9):
    sim = Simulator()
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(seed)
    sink = SinkRegistry()
    macs = {}
    for node_id in positions:
        radio = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(radio)
        mac = CmapMac(sim, node_id, radio, rngs.stream("mac", node_id),
                      params or fast_params())
        mac.attach_sink(sink.sink_for(node_id))
        macs[node_id] = mac
    return sim, medium, macs, sink


def start_all(macs):
    for m in macs.values():
        m.start()


class TestBasicExchange:
    def test_single_vpkt_delivered_and_acked(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        start_all(macs)
        sim.run(until=0.1)
        assert sink.flows[(0, 1)].delivered_unique == 4
        assert macs[0].cstats.vpkts_sent == 1
        assert macs[0].cstats.vpkts_acked == 1
        assert macs[0]._arq_for(1).outstanding_vpkts == 0

    def test_partial_vpkt_when_queue_short(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].enqueue(Packet(dst=1))
        start_all(macs)
        sim.run(until=0.1)
        assert sink.flows[(0, 1)].delivered_unique == 1

    def test_saturated_throughput(self):
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0)},
            params=fast_params(nvpkt=32, nwindow=8),
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        start_all(macs)
        sim.run(until=2.0)
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        assert mbps > 5.0  # hardware profile: low overhead

    def test_soft_mac_latency_reduces_throughput(self):
        soft = fast_params(nvpkt=32, nwindow=8,
                           latency=LatencyProfile.paper_soft_mac(),
                           t_ackwait=5e-3)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0)}, params=soft
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        start_all(macs)
        sim.run(until=2.0)
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        assert 4.5 < mbps < 5.8  # paper §4.2: 5.04 Mb/s

    def test_no_duplicates_on_clean_channel(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        start_all(macs)
        sim.run(until=0.5)
        assert sink.flows[(0, 1)].delivered_dupes == 0

    def test_receiver_reports_zero_loss_on_clean_channel(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        start_all(macs)
        sim.run(until=0.5)
        assert macs[1].receiver_window(0).loss_rate() == 0.0
        assert macs[0].backoff.cw == 0.0


class TestOngoingListMaintenance:
    def test_third_party_tracks_ongoing_burst(self):
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(40, 0)}
        )
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        macs[2].start()
        # Snapshot node 2's ongoing list mid-burst (after the header).
        snapshots = []
        sim.call_later(2e-3, lambda: snapshots.append(macs[2].ongoing.active(sim.now)))
        sim.run(until=0.1)
        assert len(snapshots[0]) == 1
        entry = snapshots[0][0]
        assert (entry.src, entry.dst) == (0, 1)

    def test_trailer_clears_ongoing_entry(self):
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(40, 0)}
        )
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        start_all(macs)
        sim.run(until=0.1)
        assert macs[2].ongoing.active(sim.now) == []


class TestDeferBehaviour:
    def test_sender_defers_to_receivers_ongoing_reception(self):
        """u checks that v is neither sending nor receiving (§3.2)."""
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(40, 0)}
        )
        # Node 2 starts a long burst to node 1 first; node 0 wants to send
        # to node 1 as well and must defer (1 is busy receiving).
        for _ in range(4):
            macs[2].enqueue(Packet(dst=1))
        macs[2].start()
        macs[1].start()
        sim.run(until=1.5e-3)  # node 2's header is on the air / heard
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        assert macs[0].cstats.defer_decisions >= 0
        sim.run(until=0.2)
        # Both bursts ultimately delivered (0 deferred, then transmitted).
        assert sink.flows[(2, 1)].delivered_unique == 4
        assert sink.flows[(0, 1)].delivered_unique == 4
        assert macs[0].cstats.defer_decisions >= 1

    def test_defer_table_entry_causes_deferral(self):
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0),
             2: Position(5, 5), 3: Position(25, 5)}
        )
        from repro.core.conflict_map import InterfererEntry

        # Pre-load node 0's defer table: defer to 2 -> * when sending to 1.
        macs[0].defer_table.update_from_interferer_list(
            0, 1, [InterfererEntry(source=0, interferer=2)], now=0.0
        )
        for _ in range(4):
            macs[2].enqueue(Packet(dst=3))
        macs[2].start()
        macs[3].start()
        sim.run(until=1.5e-3)
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.3)
        assert macs[0].cstats.defer_decisions >= 1
        assert sink.flows[(0, 1)].delivered_unique == 4


class TestInterfererListFlow:
    def test_receiver_learns_interferer_and_broadcasts(self):
        """End-to-end §3.1: collisions at the receiver populate its
        interferer list, which reaches the conflicting sender's defer table.

        Geometry: receiver 1 sits between its sender 0 and interferer 2, so
        concurrent bursts from 2 corrupt 0->1 data frames, while 0 and 2 are
        in range of each other.
        """
        positions = {
            0: Position(0, 0),
            1: Position(30, 0),   # receiver: hears 0 and 2 at similar power
            2: Position(60, 0),   # interferer, sending to 3
            3: Position(90, 0),
        }
        params = fast_params(nvpkt=8, interf_min_samples=8)
        sim, medium, macs, sink = build_net(positions, params=params)
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[2].attach_source(SaturatedSource(dst=3))
        start_all(macs)
        sim.run(until=4.0)
        # The receiver conditioned loss on node 2's concurrency...
        rate, samples = macs[1].interferer_list.conditional_loss_rate(
            sim.now, 0, 2
        )
        assert samples > 0
        # ... and at least one sender-side defer table is populated.
        total_entries = len(macs[0].defer_table) + len(macs[2].defer_table)
        assert total_entries >= 1
        assert macs[1].cstats.ilists_sent + macs[3].cstats.ilists_sent >= 1


class TestBroadcast:
    def test_broadcast_vpkt_reaches_all_no_acks(self):
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(0, 20)}
        )
        for _ in range(4):
            macs[0].enqueue(Packet(dst=BROADCAST))
        start_all(macs)
        sim.run(until=0.1)
        assert sink.flows[(0, 1)].delivered_unique == 4
        assert sink.flows[(0, 2)].delivered_unique == 4
        assert macs[1].stats.acks_sent == 0
        assert macs[2].stats.acks_sent == 0
        # Broadcast stream never blocks on the window.
        assert not macs[0]._arq_for(BROADCAST).window_full()


class TestWindowBehaviour:
    def test_window_fills_without_acks_then_times_out(self):
        # Receiver far out of range: no ACKs ever.
        params = fast_params(nvpkt=2, nwindow=2)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(500, 0)}, params=params
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        start_all(macs)
        sim.run(until=1.0)
        assert macs[0].cstats.window_timeouts >= 1
        assert macs[0].cstats.ack_wait_expired >= 2

    def test_ack_loss_does_not_stall_below_window(self):
        """§3.3: the sender keeps sending while the window has room."""
        params = fast_params(nvpkt=2, nwindow=4)
        sim, medium, macs, sink = build_net(
            {0: Position(0, 0), 1: Position(500, 0)}, params=params
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        start_all(macs)
        sim.run(until=0.05)
        assert macs[0].cstats.vpkts_sent >= 4  # window depth before stall


class TestPerDestinationQueues:
    def test_hol_blocking_avoided(self):
        """§3.2 extension: traffic to an un-deferred destination proceeds.

        Node 2 (audible to node 0, far from 0's receivers) streams long
        virtual packets; a synthetic defer rule forbids 0 -> 1 while 2 is on
        the air. With per-destination queues, node 0's traffic to node 4
        must flow anyway, while head-of-line packets for node 1 wait.
        """
        from repro.core.conflict_map import InterfererEntry

        positions = {
            0: Position(0, 0),
            1: Position(20, 0),
            4: Position(0, 20),
            2: Position(50, -30),  # ~58 m from node 0: headers decodable
            3: Position(70, -30),
        }
        # Long interferer bursts (32 packets ~ 62 ms) so node 0's decision
        # points reliably land inside them.
        params = fast_params(nvpkt=32, per_destination_queues=True)
        sim, medium, macs, sink = build_net(positions, params=params)
        macs[0].defer_table.update_from_interferer_list(
            0, 1, [InterfererEntry(source=0, interferer=2)], now=0.0
        )
        macs[2].attach_source(SaturatedSource(dst=3))
        macs[2].start()
        macs[3].start()
        sim.run(until=2e-3)
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        for _ in range(4):
            macs[0].enqueue(Packet(dst=4))
        macs[0].start()
        macs[1].start()
        macs[4].start()
        sim.run(until=0.2)
        # The un-deferred destination is served despite the deferred HOL dst.
        assert sink.flows.get((0, 4)) is not None
        assert sink.flows[(0, 4)].delivered_unique == 4
        assert macs[0].cstats.defer_decisions + macs[0].cstats.go_decisions >= 2


class TestStateMachineInvariants:
    def test_idle_when_no_traffic(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        start_all(macs)
        sim.run(until=0.2)
        assert macs[0].state is _State.IDLE

    def test_returns_to_idle_after_traffic_drains(self):
        sim, medium, macs, sink = build_net({0: Position(0, 0), 1: Position(20, 0)})
        for _ in range(8):
            macs[0].enqueue(Packet(dst=1))
        start_all(macs)
        sim.run(until=1.0)
        assert macs[0].state is _State.IDLE
        assert sink.flows[(0, 1)].delivered_unique == 8


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


class TestConflictAvoidanceMicro:
    """A symmetric conflicting pair: CMAP must serialize, not blast."""

    def test_serializes_conflicting_transmissions(self, testbed):
        import itertools

        links = testbed.links
        found = None
        for s1, r1 in itertools.permutations(testbed.node_ids, 2):
            if not links.potential_tx_link(s1, r1):
                continue
            for s2, r2 in itertools.permutations(testbed.node_ids, 2):
                if len({s1, r1, s2, r2}) != 4:
                    continue
                if not links.potential_tx_link(s2, r2):
                    continue
                if not links.in_range(s1, s2):
                    continue
                d1 = links.rss(s1, r1) - links.rss(s2, r1)
                d2 = links.rss(s2, r2) - links.rss(s1, r2)
                if -4 < d1 < 4 and -4 < d2 < 4:
                    found = (s1, r1, s2, r2)
                    break
            if found:
                break
        assert found, "testbed has no symmetric conflicting pair"
        s1, r1, s2, r2 = found

        net = Network(testbed, run_seed=5, track_tx=True)
        for n in found:
            net.add_node(n, cmap_factory())
        net.add_saturated_flow(s1, r1)
        net.add_saturated_flow(s2, r2)
        res = net.run(duration=14.0, warmup=7.0)
        total = res.flow_mbps(s1, r1) + res.flow_mbps(s2, r2)
        # Serialized sharing: near the single-link rate, and low concurrency.
        assert 3.5 < total < 7.5
        assert res.concurrency_fraction((s1, s2)) < 0.35
