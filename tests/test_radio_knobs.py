"""Failure-injection tests: radio configuration knobs at their extremes.

Each knob, pushed to a limit, must produce the physically-expected collapse
or improvement — guarding against silent sign errors in the SINR plumbing.
"""

import pytest

from repro.phy.frames import Frame
from repro.phy.medium import Medium
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.util.rng import RngFactory


class CountingMac:
    def __init__(self):
        self.ok = 0
        self.corrupt = 0

    def on_frame_received(self, frame, ok, reception):
        if ok:
            self.ok += 1
        else:
            self.corrupt += 1

    def on_tx_complete(self, frame):
        pass

    def on_channel_busy(self):
        pass

    def on_channel_idle(self):
        pass


def run_probes(cfg_kwargs, distance=30.0, frames=40, interferer_at=None):
    sim = Simulator()
    positions = {0: Position(0, 0), 1: Position(distance, 0)}
    if interferer_at is not None:
        positions[2] = Position(*interferer_at)
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None,
                      **cfg_kwargs)
    rngs = RngFactory(33)
    radios = {}
    macs = {}
    for node_id in positions:
        r = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(r)
        m = CountingMac()
        r.mac = m
        radios[node_id] = r
        macs[node_id] = m
    air = medium.airtime(Frame(src=0, dst=1, size_bytes=1428))
    for i in range(frames):
        sim.call_at(
            i * (air + 1e-5),
            lambda: radios[0].transmit(Frame(src=0, dst=1, size_bytes=1428)),
        )
        if interferer_at is not None:
            sim.call_at(
                i * (air + 1e-5),
                lambda: radios[2].transmit(Frame(src=2, dst=1, size_bytes=1428)),
            )
    sim.run()
    return radios, macs


class TestSensitivity:
    def test_deaf_radio_hears_nothing(self):
        radios, macs = run_probes({"sensitivity_dbm": 0.0})
        assert macs[1].ok == 0
        assert radios[1].stats.sync_missed_weak == 40

    def test_default_hears_everything(self):
        radios, macs = run_probes({})
        assert macs[1].ok == 40


class TestCaptureThreshold:
    def test_impossible_capture_threshold_blocks_sync(self):
        radios, macs = run_probes({"capture_sinr_db": 500.0})
        assert macs[1].ok == 0
        assert radios[1].stats.sync_missed_capture == 40

    def test_negative_capture_threshold_syncs_into_collisions(self):
        # Equidistant interferer; sync succeeds but frames corrupt.
        radios, macs = run_probes(
            {"capture_sinr_db": -50.0, "mim_capture": False},
            interferer_at=(60.0, 0.0),
        )
        assert macs[1].ok == 0
        assert macs[1].corrupt > 0


class TestNoiseFloor:
    def test_raised_noise_floor_kills_marginal_link(self):
        # 30 m link has ~25 dB margin at default noise; +30 dB noise kills.
        radios, macs = run_probes({"noise_dbm": -63.0})
        assert macs[1].ok == 0

    def test_lowered_noise_floor_extends_range(self):
        _, macs_default = run_probes({}, distance=110.0)
        _, macs_quiet = run_probes(
            {"noise_dbm": -113.0, "sensitivity_dbm": -110.0}, distance=110.0
        )
        assert macs_quiet[1].ok > macs_default[1].ok


class TestTxPowerAsymmetry:
    def test_weaker_tx_power_shrinks_range(self):
        positions = {0: Position(0, 0), 1: Position(95, 0)}
        strong = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
        weak = RssMatrix(LogDistance(exponent=3.3), positions, 3.0)
        assert weak.rss(0, 1) == pytest.approx(strong.rss(0, 1) - 15.0)
