"""Integration tests for the medium + radio pair (delivery physics)."""

import pytest

from repro.phy.frames import Frame
from repro.phy.medium import Medium
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig, RadioState
from repro.sim.engine import Simulator
from repro.util.rng import RngFactory


class RecordingMac:
    """Captures every radio callback for assertions."""

    def __init__(self):
        self.received = []  # (frame, ok)
        self.tx_complete = []
        self.busy_edges = []

    def on_frame_received(self, frame, ok, reception):
        self.received.append((frame, ok))

    def on_tx_complete(self, frame):
        self.tx_complete.append(frame)

    def on_channel_busy(self):
        self.busy_edges.append("busy")

    def on_channel_idle(self):
        self.busy_edges.append("idle")


def build(positions, tx_power=18.0, **radio_kwargs):
    """A sim + medium + one radio/mac per position, deterministic PHY."""
    sim = Simulator()
    rss = RssMatrix(LogDistance(exponent=3.3), positions, tx_power)
    medium = Medium(sim, rss)
    cfg = RadioConfig(
        tx_power_dbm=tx_power,
        error_model=SinrThresholdErrorModel(),
        fading=None,
        **radio_kwargs,
    )
    rngs = RngFactory(0)
    radios, macs = {}, {}
    for node_id in positions:
        r = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(r)
        m = RecordingMac()
        r.mac = m
        radios[node_id] = r
        macs[node_id] = m
    return sim, medium, radios, macs


def data_frame(src, dst, size=1428):
    return Frame(src=src, dst=dst, size_bytes=size)


class TestBasicDelivery:
    def test_close_pair_delivers_ok(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert len(macs[1].received) == 1
        frame, ok = macs[1].received[0]
        assert ok and frame.src == 0

    def test_out_of_reach_receiver_hears_nothing(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(2000, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert macs[1].received == []

    def test_weak_frame_delivered_corrupt_or_missed(self):
        # ~115 m at exponent 3.3: RSS ~ -90.4 dBm, below decode threshold.
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(115, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert all(not ok for _, ok in macs[1].received)

    def test_tx_complete_callback(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        f = data_frame(0, 1)
        radios[0].transmit(f)
        sim.run()
        assert macs[0].tx_complete == [f]

    def test_promiscuous_third_party_hears_frame(self):
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(30, 10)}
        )
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert len(macs[2].received) == 1  # not addressed to it, still decoded

    def test_airtime_defines_delivery_time(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        f = data_frame(0, 1)
        expected = medium.airtime(f)
        radios[0].transmit(f)
        sim.run()
        assert sim.now == pytest.approx(expected)


class TestHalfDuplex:
    def test_cannot_transmit_twice(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        with pytest.raises(RuntimeError):
            radios[0].transmit(data_frame(0, 1))

    def test_transmitter_deaf_while_sending(self):
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(40, 0)}
        )
        radios[0].transmit(data_frame(0, 1, size=1428))
        # Node 2 starts shortly after; node 0 is mid-TX for ~1.9 ms.
        sim.call_later(100e-6, lambda: radios[2].transmit(data_frame(2, 1, size=100)))
        sim.run()
        assert all(f.src != 2 for f, _ in macs[0].received)

    def test_transmit_aborts_reception(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1, size=1428))
        # Node 1 starts its own TX mid-reception: the RX dies.
        sim.call_later(200e-6, lambda: radios[1].transmit(data_frame(1, 0, size=100)))
        sim.run()
        assert radios[1].stats.rx_aborted_by_tx == 1
        assert all(f.src != 0 for f, _ in macs[1].received)

    def test_state_returns_to_idle(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert radios[0].state is RadioState.IDLE
        assert radios[1].state is RadioState.IDLE


class TestCollisions:
    def test_equal_power_collision_kills_both(self):
        # Two senders equidistant from the receiver, simultaneous frames.
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(50, 0), 2: Position(100, 0)}
        )
        radios[0].transmit(data_frame(0, 1))
        radios[2].transmit(data_frame(2, 1))
        sim.run()
        assert all(not ok for _, ok in macs[1].received)

    def test_capture_of_much_stronger_first_frame(self):
        # Receiver at 10 m from sender 0, interferer at 300 m: huge SINR.
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(10, 0), 2: Position(300, 0)}
        )
        radios[0].transmit(data_frame(0, 1))
        radios[2].transmit(data_frame(2, 1))
        sim.run()
        oks = [ok for f, ok in macs[1].received if f.src == 0]
        assert oks == [True]

    def test_late_interference_corrupts_synced_frame(self):
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(50, 0), 2: Position(95, 0)}
        )
        radios[0].transmit(data_frame(0, 1))
        sim.call_later(500e-6, lambda: radios[2].transmit(data_frame(2, 1)))
        sim.run()
        oks = [ok for f, ok in macs[1].received if f.src == 0]
        assert oks == [False]

    def test_mim_capture_restarts_onto_stronger_frame(self):
        # Weak-but-syncable frame from 2 (60 m, ~-87 dBm) being received; a
        # 20 dB stronger frame from 0 arrives mid-way: the radio re-syncs.
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(15, 0), 2: Position(60, 15)}
        )
        radios[2].transmit(data_frame(2, 1))
        sim.call_later(300e-6, lambda: radios[0].transmit(data_frame(0, 1, size=200)))
        sim.run()
        assert radios[1].stats.rx_mim_captures == 1
        strong = [ok for f, ok in macs[1].received if f.src == 0]
        assert strong == [True]

    def test_mim_disabled_keeps_first_sync(self):
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(15, 0), 2: Position(60, 15)},
            mim_capture=False,
        )
        radios[2].transmit(data_frame(2, 1))
        sim.call_later(300e-6, lambda: radios[0].transmit(data_frame(0, 1, size=200)))
        sim.run()
        assert radios[1].stats.rx_mim_captures == 0
        assert all(f.src != 0 for f, ok in macs[1].received if ok)


class TestCarrierSense:
    def test_busy_idle_edges_reported(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert macs[1].busy_edges == ["busy", "idle"]

    def test_channel_busy_query(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        assert radios[0].is_channel_busy()  # own TX
        states = []
        sim.call_later(100e-6, lambda: states.append(radios[1].is_channel_busy()))
        sim.run()
        assert states == [True]
        assert not radios[1].is_channel_busy()

    def test_far_transmission_not_sensed(self):
        # Below the CS threshold: no busy edge at the distant listener.
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(400, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        assert macs[1].busy_edges == []

    def test_overlapping_frames_single_busy_period(self):
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(30, 0), 2: Position(60, 0)}
        )
        radios[0].transmit(data_frame(0, 1))
        sim.call_later(200e-6, lambda: radios[2].transmit(data_frame(2, 1)))
        sim.run()
        assert macs[1].busy_edges == ["busy", "idle"]


class TestMediumBookkeeping:
    def test_active_transmissions_tracked(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        assert len(medium.active_transmissions()) == 1
        sim.run()
        assert medium.active_transmissions() == []

    def test_total_count(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(data_frame(0, 1))
        sim.run()
        radios[1].transmit(data_frame(1, 0))
        sim.run()
        assert medium.total_transmissions == 2

    def test_tx_log_when_enabled(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        medium.tx_log = []
        f = data_frame(0, 1)
        radios[0].transmit(f)
        sim.run()
        assert medium.tx_log == [(0, 0.0, pytest.approx(medium.airtime(f)))]

    def test_duplicate_attach_rejected(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        with pytest.raises(ValueError):
            medium.attach(radios[0])

    def test_radio_lookup(self):
        sim, medium, radios, macs = build({0: Position(0, 0), 1: Position(20, 0)})
        assert medium.radio(0) is radios[0]
