"""Substrate validation: in-sim delivery must match the analytic channel.

Every scenario finder in :mod:`repro.experiments.scenarios` classifies links
with *analytic* PRRs (fading-averaged error-model integrals), while the
simulation delivers frames through *sampled* fading draws. Those two views
must agree, or scenario selection silently diverges from in-run behaviour.
The helpers below measure the divergence and the tests pin it below a
tolerance — the simulator's equivalent of a testbed's link calibration run
(paper §5.1).
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest

from repro.net.testbed import Testbed
from repro.phy.frames import Frame
from repro.phy.medium import Medium
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator


@dataclass
class LinkValidation:
    """Analytic vs Monte-Carlo PRR for one directed link."""

    src: int
    dst: int
    analytic_prr: float
    measured_prr: float
    frames: int

    @property
    def error(self) -> float:
        return abs(self.analytic_prr - self.measured_prr)


def measure_link_prr(
    testbed: Testbed,
    src: int,
    dst: int,
    frames: int = 400,
    probe_bytes: int = 1428,
    run_seed: int = 0,
) -> LinkValidation:
    """Blast ``frames`` isolated probes over one link and count deliveries.

    Uses the same radio/medium stack as real runs (fading draws included)
    but no MAC — frames go back-to-back with a small gap, interference-free.
    """
    sim = Simulator()
    medium = Medium(sim, testbed.rss)
    cfg = RadioConfig(
        tx_power_dbm=testbed.config.tx_power_dbm,
        noise_dbm=testbed.config.noise_dbm,
        fading=testbed.fading,
        error_model=testbed.error_model,
    )
    rngs = testbed.rngs.fork("validation", run_seed)
    tx_radio = Radio(sim, src, cfg, rngs.stream("radio", src))
    rx_radio = Radio(sim, dst, cfg, rngs.stream("radio", dst))
    medium.attach(tx_radio)
    medium.attach(rx_radio)

    delivered = [0]

    class CountingMac:
        def on_frame_received(self, frame, ok, reception):
            if ok and frame.dst == dst:
                delivered[0] += 1

        def on_tx_complete(self, frame):
            pass

        def on_channel_busy(self):
            pass

        def on_channel_idle(self):
            pass

    rx_radio.mac = CountingMac()
    tx_radio.mac = CountingMac()

    airtime = medium.airtime(Frame(src=src, dst=dst, size_bytes=probe_bytes))
    for i in range(frames):
        sim.call_at(
            i * (airtime + 1e-5),
            lambda: tx_radio.transmit(
                Frame(src=src, dst=dst, size_bytes=probe_bytes)
            ),
        )
    sim.run()
    return LinkValidation(
        src=src,
        dst=dst,
        analytic_prr=testbed.links.prr(src, dst),
        measured_prr=delivered[0] / frames,
        frames=frames,
    )


def validate_testbed(
    testbed: Testbed,
    num_links: int = 12,
    frames: int = 400,
    seed: int = 0,
    prr_range: Tuple[float, float] = (0.02, 0.995),
) -> List[LinkValidation]:
    """Validate a sample of links spanning the interesting PRR range.

    Perfect and dead links agree trivially; the sampled links are the
    gray-region ones where quadrature-vs-sampling errors would show.
    """
    candidates = [
        ls
        for ls in testbed.links.all_links()
        if prr_range[0] <= ls.prr <= prr_range[1]
    ]
    candidates.sort(key=lambda ls: ls.prr)
    if not candidates:
        return []
    # Evenly spaced through the sorted PRR range.
    idx = np.linspace(0, len(candidates) - 1, min(num_links, len(candidates)))
    picks = [candidates[int(i)] for i in idx]
    return [
        measure_link_prr(testbed, ls.src, ls.dst, frames=frames, run_seed=seed)
        for ls in picks
    ]


def max_validation_error(validations: List[LinkValidation]) -> float:
    return max((v.error for v in validations), default=0.0)


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


class TestSingleLink:
    def test_perfect_link_measures_perfect(self, testbed):
        links = testbed.links
        pair = next(
            (ls.src, ls.dst) for ls in links.all_links() if ls.prr > 0.999
        )
        v = measure_link_prr(testbed, *pair, frames=150)
        assert v.measured_prr > 0.97

    def test_dead_link_measures_dead(self, testbed):
        links = testbed.links
        pair = next(
            (ls.src, ls.dst)
            for ls in links.all_links()
            if 0 < ls.prr < 0.01
        )
        v = measure_link_prr(testbed, *pair, frames=150)
        assert v.measured_prr < 0.1

    def test_gray_link_within_binomial_noise(self, testbed):
        links = testbed.links
        ls = min(links.all_links(), key=lambda ls: abs(ls.prr - 0.5))
        v = measure_link_prr(testbed, ls.src, ls.dst, frames=600)
        # 4 sigma of a binomial proportion at n=600.
        sigma = math.sqrt(ls.prr * (1 - ls.prr) / 600)
        assert v.error < max(4 * sigma, 0.08)


class TestTestbedSweep:
    def test_gray_region_links_agree(self, testbed):
        validations = validate_testbed(testbed, num_links=8, frames=400)
        assert len(validations) == 8
        worst = max_validation_error(validations)
        # Binomial noise at n=400 is ~0.025 sigma at PRR 0.5; allow 4 sigma
        # plus quadrature error headroom.
        assert worst < 0.12, [
            (v.src, v.dst, round(v.analytic_prr, 3), round(v.measured_prr, 3))
            for v in validations
        ]

    def test_mean_error_small(self, testbed):
        validations = validate_testbed(testbed, num_links=8, frames=400)
        mean_err = sum(v.error for v in validations) / len(validations)
        assert mean_err < 0.05
