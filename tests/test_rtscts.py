"""Tests for the RTS/CTS virtual-carrier-sense baseline (MACA, §6)."""


from repro.mac.base import Packet
from repro.mac.rtscts import CtsFrame, RtsCtsMac, RtsCtsParams, RtsFrame
from repro.phy.medium import Medium
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import SaturatedSource, SinkRegistry
from repro.util.rng import RngFactory


def build(positions, params=None):
    sim = Simulator()
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(6)
    sink = SinkRegistry()
    macs = {}
    for node_id in positions:
        radio = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(radio)
        mac = RtsCtsMac(sim, node_id, radio, rngs.stream("mac", node_id),
                        params or RtsCtsParams())
        mac.attach_sink(sink.sink_for(node_id))
        macs[node_id] = mac
    return sim, medium, macs, sink


class TestHandshake:
    def test_four_way_exchange_delivers(self):
        sim, medium, macs, sink = build({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.1)
        assert sink.flows[(0, 1)].delivered_unique == 1
        assert macs[0].stats_rts_sent == 1
        assert macs[0].stats.acks_received == 1

    def test_throughput_below_plain_dcf(self):
        """The handshake costs two control frames + two SIFS per packet."""
        sim, medium, macs, sink = build({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=2.0)
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        assert 3.5 < mbps < 5.1  # plain DCF measures ~5.2 in this harness

    def test_two_way_flows_survive_own_cts_on_the_air(self):
        """Each node both sends and answers: a countdown that ends while
        the node's own CTS/ACK is on the air retries a slot later instead
        of transmitting over it."""
        sim, medium, macs, sink = build({0: Position(0, 0), 1: Position(20, 0)})
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[1].attach_source(SaturatedSource(dst=0))
        for m in macs.values():
            m.start()
        sim.run(until=1.0)
        assert sink.flows[(0, 1)].delivered_unique > 0
        assert sink.flows[(1, 0)].delivered_unique > 0

    def test_cts_timeout_retries(self):
        sim, medium, macs, sink = build({0: Position(0, 0), 1: Position(500, 0)})
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        sim.run(until=0.5)
        assert macs[0].stats_cts_timeouts >= 1
        assert macs[0].stats.packets_dropped == 1


class TestNav:
    def test_overheard_rts_sets_nav(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(10, 10)}
        sim, medium, macs, sink = build(positions)
        macs[0].enqueue(Packet(dst=1))
        for m in macs.values():
            m.start()
        sim.run(until=0.05)
        assert macs[2].nav_until > 0.0
        assert macs[2].stats_nav_set >= 1

    def test_nav_defers_third_party_sender(self):
        """A bystander with traffic waits out the reserved exchange."""
        positions = {0: Position(0, 0), 1: Position(20, 0),
                     2: Position(10, 10), 3: Position(30, 10)}
        sim, medium, macs, sink = build(positions)
        macs[0].enqueue(Packet(dst=1))
        for m in macs.values():
            m.start()
        # Node 2 gets a packet right after node 0's RTS goes out.
        def later():
            macs[2].enqueue(Packet(dst=3))

        sim.call_later(150e-6, later)
        starts = []
        orig = macs[2].radio.transmit

        def spy(frame):
            starts.append((sim.now, type(frame).__name__))
            return orig(frame)

        macs[2].radio.transmit = spy
        sim.run(until=0.1)
        assert sink.flows[(2, 3)].delivered_unique == 1
        rts_times = [t for t, name in starts if name == "RtsFrame"]
        # Node 2's RTS must wait for node 0's whole reserved exchange.
        assert rts_times[0] >= macs[2].nav_until or rts_times[0] > 2e-3

    def test_exposed_terminal_problem_not_solved(self):
        """§6: RTS/CTS serializes exposed senders just like carrier sense.

        Two flows whose receivers are far from the other sender: raw
        concurrency would double throughput, but each sender overhears the
        other's RTS and defers.
        """
        positions = {0: Position(0, 0), 1: Position(-30, 0),
                     2: Position(20, 0), 3: Position(50, 0)}
        sim, medium, macs, sink = build(positions)
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[2].attach_source(SaturatedSource(dst=3))
        for m in macs.values():
            m.start()
        sim.run(until=2.0)
        f1 = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        f2 = sink.flows[(2, 3)].bytes_unique * 8 / 2.0 / 1e6
        # Serialized: the pair shares one link's worth of airtime.
        assert f1 + f2 < 6.0


class TestBroadcast:
    def test_broadcast_skips_handshake(self):
        from repro.phy.frames import BROADCAST

        positions = {0: Position(0, 0), 1: Position(20, 0)}
        sim, medium, macs, sink = build(positions)
        macs[0].enqueue(Packet(dst=BROADCAST))
        for m in macs.values():
            m.start()
        sim.run(until=0.05)
        assert macs[0].stats_rts_sent == 0
        assert sink.flows[(0, 1)].delivered_unique == 1


class TestFrames:
    def test_control_frame_sizes(self):
        rts = RtsFrame(src=0, dst=1, size_bytes=0, duration=1e-3)
        cts = CtsFrame(src=1, dst=0, size_bytes=0, duration=1e-3, rts_uid=1)
        assert rts.size_bytes == 20
        assert cts.size_bytes == 14
