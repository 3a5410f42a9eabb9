"""Focused DCF contention tests: backoff freezing and deference timing."""


from repro.mac.base import Packet
from repro.mac.dcf import DcfMac, DcfParams
from repro.phy.frames import Frame
from repro.phy.medium import Medium
from repro.phy.modulation import Phy80211a, SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import SinkRegistry
from repro.util.rng import RngFactory


def build(positions, params=None):
    sim = Simulator()
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(4)
    sink = SinkRegistry()
    macs, radios = {}, {}
    for node_id in positions:
        radio = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(radio)
        mac = DcfMac(sim, node_id, radio, rngs.stream("mac", node_id),
                     params or DcfParams())
        mac.attach_sink(sink.sink_for(node_id))
        macs[node_id] = mac
        radios[node_id] = radio
    return sim, medium, macs, radios, sink


class TestDeference:
    def test_sender_waits_for_busy_channel(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(10, 5)}
        sim, medium, macs, radios, sink = build(positions)
        macs[1].start()
        # Node 2 occupies the channel with a long raw frame.
        blocker = Frame(src=2, dst=1, size_bytes=1428)
        radios[2].transmit(blocker)
        block_end = medium.airtime(blocker)
        # Node 0's packet arrives mid-transmission; it must not start
        # transmitting until the channel clears + DIFS.
        sim.call_later(200e-6, lambda: (macs[0].enqueue(Packet(dst=1)),
                                      macs[0].start()))
        starts = []
        orig = radios[0].transmit

        def spy(frame):
            starts.append(sim.now)
            return orig(frame)

        radios[0].transmit = spy
        sim.run(until=0.05)
        assert starts, "node 0 never transmitted"
        assert starts[0] >= block_end + macs[0].params.difs - 1e-9

    def test_backoff_freezes_during_foreign_frame(self):
        """A retry backoff must not tick down while the channel is busy."""
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(10, 5)}
        params = DcfParams(cw_min=255, cw_max=255, retry_limit=0)
        sim, medium, macs, radios, sink = build(positions, params)
        macs[0]._need_post_backoff = True  # force a drawn backoff
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        # While node 0 counts down its (large) backoff, node 2 transmits:
        # node 0's countdown pauses for the duration.
        def occupy():
            radios[2].transmit(Frame(src=2, dst=1, size_bytes=1428))

        sim.call_later(100e-6, occupy)
        starts = []
        orig = radios[0].transmit

        def spy(frame):
            starts.append(sim.now)
            return orig(frame)

        radios[0].transmit = spy
        sim.run(until=0.1)
        assert starts
        # The blocker takes ~1.93 ms; 255 slots are ~2.3 ms. The start time
        # must reflect both (plus two DIFS), i.e. well after either alone.
        blocker_air = Phy80211a.airtime(1428, params.data_rate)
        assert starts[0] > blocker_air + 100e-6


class TestPostTxBackoff:
    def test_second_packet_waits_a_backoff(self):
        positions = {0: Position(0, 0), 1: Position(20, 0)}
        sim, medium, macs, radios, sink = build(positions)
        macs[0].enqueue(Packet(dst=1))
        macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        starts = []
        orig = radios[0].transmit

        def spy(frame):
            if frame.kind.name == "DCF_DATA":
                starts.append(sim.now)
            return orig(frame)

        radios[0].transmit = spy
        sim.run(until=0.1)
        assert len(starts) == 2
        gap = starts[1] - starts[0]
        air = Phy80211a.airtime(1428, DcfParams().data_rate)
        ack = Phy80211a.airtime(14, DcfParams().ack_rate)
        minimum = air + DcfParams().sifs + ack + DcfParams().difs
        assert gap >= minimum - 1e-9
