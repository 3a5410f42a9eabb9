"""Tests for ARF rate adaptation and the conflict-map-aware rate policy."""

import pytest

from repro.core.cmap_mac import CmapMac
from repro.core.conflict_map import InterfererEntry
from repro.core.params import CmapParams, LatencyProfile
from repro.experiments.spec import MacSpec
from repro.mac.autorate import ArfDcfMac, ArfParams
from repro.mac.base import Packet
from repro.phy.medium import Medium
from repro.phy.modulation import RATES, SinrThresholdErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import SaturatedSource, SinkRegistry
from repro.util.rng import RngFactory


def build(positions, mac_cls, params):
    sim = Simulator()
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(12)
    sink = SinkRegistry()
    macs = {}
    for node_id in positions:
        radio = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(radio)
        mac = mac_cls(sim, node_id, radio, rngs.stream("mac", node_id), params)
        mac.attach_sink(sink.sink_for(node_id))
        macs[node_id] = mac
    return sim, medium, macs, sink


class TestArfLadder:
    def test_climbs_on_clean_short_link(self):
        # 10 m: even 54 Mb/s decodes -> ARF should reach the top rung.
        sim, medium, macs, sink = build(
            {0: Position(0, 0), 1: Position(10, 0)}, ArfDcfMac, ArfParams()
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=1.0)
        assert macs[0].current_rate.mbps >= 36
        assert macs[0].rate_changes >= 4
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 1.0 / 1e6
        assert mbps > 10.0  # far above the 6 Mb/s floor

    def test_settles_at_sustainable_rate_on_marginal_link(self):
        # ~62 m: SINR ~13.7 dB -> 12/18 decodable, 24+ not (threshold model).
        sim, medium, macs, sink = build(
            {0: Position(0, 0), 1: Position(62, 0)}, ArfDcfMac, ArfParams()
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=2.0)
        assert macs[0].current_rate.mbps <= 24
        mbps = sink.flows[(0, 1)].bytes_unique * 8 / 2.0 / 1e6
        assert mbps > 4.0

    def test_dead_link_pins_bottom_rung(self):
        sim, medium, macs, sink = build(
            {0: Position(0, 0), 1: Position(500, 0)}, ArfDcfMac, ArfParams()
        )
        macs[0].attach_source(SaturatedSource(dst=1))
        macs[0].start()
        sim.run(until=0.5)
        assert macs[0].current_rate.mbps == 6

    def test_custom_ladder_and_start(self):
        params = ArfParams(ladder_mbps=(6, 12, 24), start_index=1)
        sim, medium, macs, sink = build(
            {0: Position(0, 0), 1: Position(10, 0)}, ArfDcfMac, params
        )
        assert macs[0].current_rate.mbps == 12


class TestArfSharedParams:
    @pytest.mark.xfail(
        strict=True,
        reason="ArfDcfMac._apply_rate writes its rung's rate into the one "
        "ArfParams the registry factory hands every node (ROADMAP item 7)",
    )
    def test_a_rate_step_moves_only_its_own_node(self):
        factory = MacSpec.of("autorate").build()
        sim, medium, macs, sink = build(
            {0: Position(0, 0), 1: Position(10, 0)},
            lambda sim, node_id, radio, rng, _params: factory(
                sim, node_id, radio, rng
            ),
            None,
        )
        macs[0]._step(+1)
        assert macs[0].current_rate.mbps == 9
        assert macs[1].current_rate.mbps == 6
        # Node 1 transmits at params.data_rate: it must be its own rung's.
        assert macs[1].params.data_rate is macs[1].current_rate


class TestCmapRateDownshift:
    def _params(self, **kw):
        defaults = dict(
            nvpkt=4,
            nwindow=3,
            latency=LatencyProfile.hardware(),
            t_ackwait=0.5e-3,
            t_deferwait=0.5e-3,
            data_rate=RATES[18],
            rate_aware_map=True,
            adapt_rate_on_defer=True,
        )
        defaults.update(kw)
        return CmapParams(**defaults)

    def test_downshifts_instead_of_deferring(self):
        positions = {
            0: Position(0, 0), 1: Position(20, 0),
            2: Position(50, -30), 3: Position(70, -30),
        }
        params = self._params()
        sim, medium, macs, sink = build(positions, CmapMac, params)
        # The map says: 18 Mb/s to node 1 conflicts with node 2's bursts,
        # but nothing is known against lower rates.
        macs[0].defer_table.update_from_interferer_list(
            0, 1,
            [InterfererEntry(0, 2, source_rate_mbps=18, interferer_rate_mbps=6)],
            now=0.0,
        )
        macs[2].attach_source(SaturatedSource(dst=3))
        macs[2].start()
        macs[3].start()
        sim.run(until=2e-3)
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.2)
        assert macs[0].cstats.rate_downshifts >= 1
        assert sink.flows[(0, 1)].delivered_unique == 4

    def test_no_downshift_below_floor(self):
        positions = {
            0: Position(0, 0), 1: Position(20, 0),
            2: Position(50, -30), 3: Position(70, -30),
        }
        # Floor at 0.9: no rate in (16.2, 18) exists, so it must defer.
        params = self._params(downshift_min_fraction=0.9)
        sim, medium, macs, sink = build(positions, CmapMac, params)
        macs[0].defer_table.update_from_interferer_list(
            0, 1,
            [InterfererEntry(0, 2, source_rate_mbps=18, interferer_rate_mbps=6)],
            now=0.0,
        )
        macs[2].attach_source(SaturatedSource(dst=3))
        macs[2].start()
        macs[3].start()
        sim.run(until=2e-3)
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.2)
        assert macs[0].cstats.rate_downshifts == 0
        assert macs[0].cstats.defer_decisions >= 1

    def test_blocked_lower_rate_also_respected(self):
        positions = {
            0: Position(0, 0), 1: Position(20, 0),
            2: Position(50, -30), 3: Position(70, -30),
        }
        params = self._params()
        sim, medium, macs, sink = build(positions, CmapMac, params)
        # Conflicts known at *both* 18 and all lower rungs >= 9.
        entries = [
            InterfererEntry(0, 2, source_rate_mbps=m, interferer_rate_mbps=6)
            for m in (18, 12, 9)
        ]
        macs[0].defer_table.update_from_interferer_list(0, 1, entries, now=0.0)
        macs[2].attach_source(SaturatedSource(dst=3))
        macs[2].start()
        macs[3].start()
        sim.run(until=2e-3)
        for _ in range(4):
            macs[0].enqueue(Packet(dst=1))
        macs[0].start()
        macs[1].start()
        sim.run(until=0.2)
        # 9 Mb/s is the only rung above the 0.5 floor and it is blocked.
        assert macs[0].cstats.rate_downshifts == 0
