"""Tests for RSS-floor neighborhood culling (delivery + interference floors).

Covers the PR's acceptance surface:

* bit-identity: a permissive floor (below every link) builds byte-identical
  fan-out tables, so trial outputs match the floorless run exactly;
* shrinkage: a tight floor demotes mid-band receivers to interference-only
  entries and culls far ones entirely;
* dynamics: culling stays correct across ``set_position`` epochs and churn
  (attach/detach), and a move only re-culls tables the moved row touches.
"""

import pickle

import pytest

from repro.experiments.executor import run_trial
from repro.experiments.runners import ExperimentScale, build_exposed_terminals
from repro.experiments.spec import MacSpec, TrialSpec
from repro.net.testbed import Testbed
from repro.phy.frames import Frame
from repro.phy.medium import Medium
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import DynamicRssMatrix, LogDistance, Position, RssMatrix
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.util.rng import RngFactory


class SpyMac:
    def __init__(self):
        self.events = []

    def on_frame_received(self, frame, ok, reception):
        self.events.append(("rx", ok))

    def on_tx_complete(self, frame):
        self.events.append(("tx_done", None))

    def on_channel_busy(self):
        self.events.append(("busy", None))

    def on_channel_idle(self):
        self.events.append(("idle", None))


def build(positions, dynamic=False, **medium_kw):
    sim = Simulator()
    model = LogDistance(exponent=3.3)
    if dynamic:
        rss = DynamicRssMatrix(model, positions, 18.0)
    else:
        rss = RssMatrix(model, positions, 18.0)
    medium = Medium(sim, rss, **medium_kw)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(77)
    radios, macs = {}, {}
    for nid in positions:
        radios[nid] = Radio(sim, nid, cfg, rngs.stream("r", nid))
        medium.attach(radios[nid])
        macs[nid] = SpyMac()
        radios[nid].mac = macs[nid]
    return sim, medium, radios, macs


# At LogDistance(3.3), 18 dBm, PL(1m) 46.7: rss(d) = -28.7 - 33 log10(d).
# 20 m -> -71.6; 70 m -> -89.6; 150 m -> -100.5; 500 m -> -117.7 dBm.


class TestFloorValidation:
    def test_interference_floor_above_delivery_floor_rejected(self):
        sim = Simulator()
        rss = RssMatrix(LogDistance(), {0: Position(0, 0), 1: Position(9, 0)}, 18.0)
        with pytest.raises(ValueError):
            Medium(sim, rss, delivery_floor_dbm=-90.0, interference_floor_dbm=-80.0)


class TestPermissiveFloorBitIdentity:
    def test_tables_identical_below_every_link(self):
        positions = {i: Position(25.0 * i, 0) for i in range(5)}
        _, plain, radios_a, _ = build(positions)
        _, floored, radios_b, _ = build(
            positions, delivery_floor_dbm=-500.0, interference_floor_dbm=-500.0
        )
        for tx in positions:
            starts_a, ends_a = plain._build_tx_fanout(tx)
            starts_b, ends_b = floored._build_tx_fanout(tx)
            assert [(e[1], e[2]) for e in starts_a] == [
                (e[1], e[2]) for e in starts_b
            ]
            assert [fn.__name__ for fn, *_ in starts_b] == [
                "on_frame_start"
            ] * len(starts_b)
            assert [fn.__name__ for fn, _ in ends_b] == [
                "on_frame_end"
            ] * len(ends_b)

    def test_trial_output_identical_with_permissive_floor(self):
        testbed = Testbed(seed=1)
        spec = build_exposed_terminals(testbed, ExperimentScale.smoke()).trials[0]
        baseline = run_trial(testbed, spec)
        floored = TrialSpec(
            trial_id=spec.trial_id,
            nodes=spec.nodes,
            flows=spec.flows,
            mac=spec.mac,
            run_seed=spec.run_seed,
            duration=spec.duration,
            warmup=spec.warmup,
            track_tx=spec.track_tx,
            metrics=spec.metrics,
            delivery_floor_dbm=-500.0,
            interference_floor_dbm=-500.0,
        )
        result = run_trial(testbed, floored)
        assert result.flow_mbps == baseline.flow_mbps
        assert result.metrics == baseline.metrics

    def test_floors_change_fingerprint_only_when_set(self):
        base = TrialSpec("t", (0, 1), ((0, 1),), MacSpec.of("cmap"), 0, 4.0, 1.0)
        floored = TrialSpec(
            "t", (0, 1), ((0, 1),), MacSpec.of("cmap"), 0, 4.0, 1.0,
            delivery_floor_dbm=-90.0,
        )
        assert base.fingerprint() != floored.fingerprint()
        clone = pickle.loads(pickle.dumps(floored))
        assert clone == floored
        assert clone.fingerprint() == floored.fingerprint()


class TestTightFloorShrinkage:
    POSITIONS = {
        0: Position(0, 0),
        1: Position(20, 0),  # -71.6 dBm: above the delivery floor
        2: Position(70, 0),  # -89.6 dBm: interference-only band
        3: Position(150, 0),  # -100.5 dBm: culled (but above min_power)
    }

    def build_tight(self):
        return build(
            self.POSITIONS,
            delivery_floor_dbm=-85.0,
            interference_floor_dbm=-95.0,
        )

    def test_receiver_set_shrinks(self):
        _, medium, _, _ = self.build_tight()
        starts, ends = medium._build_tx_fanout(0)
        assert len(starts) == len(ends) == 2  # node 3 culled entirely
        assert medium.fanout_census()[0] == (1, 1)

    def test_interference_only_receiver_gets_no_delivery(self):
        sim, medium, radios, macs = self.build_tight()
        radios[0].transmit(Frame(src=0, dst=1, size_bytes=1428))
        sim.run()
        assert ("rx", True) in macs[1].events
        # Node 2: energy + carrier sense only (-89.6 >= cs threshold -95).
        assert all(e[0] != "rx" for e in macs[2].events)
        assert ("busy", None) in macs[2].events
        assert ("idle", None) in macs[2].events
        assert radios[2].stats.interference_only_arrivals == 1
        assert radios[2]._arrivals == {}  # start matched by end
        # Node 3: culled — never touched.
        assert macs[3].events == []
        assert radios[3]._arrivals == {}

    def test_interference_only_energy_counts_against_reception(self):
        # The jammer (node 2 -> its far partner) is below node 1's delivery
        # floor but must still degrade SINR at node 1.
        sim, medium, radios, macs = build(
            {0: Position(0, 0), 1: Position(20, 0), 2: Position(1, 58)},
            delivery_floor_dbm=-80.0,  # node 2 at ~61 m (-87.6) is sub-floor
            interference_floor_dbm=-95.0,
        )
        radios[2].transmit(Frame(src=2, dst=0, size_bytes=1428))
        assert radios[1].interference_mw() > 0.0  # energy-only bookkeeping
        radios[0].transmit(Frame(src=0, dst=1, size_bytes=200))
        sim.run()
        assert radios[1].stats.interference_only_arrivals == 1


class TestCullingAcrossEpochs:
    def test_move_out_and_back_reculls(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(60, 0)}
        sim, medium, radios, macs = build(
            positions,
            dynamic=True,
            delivery_floor_dbm=-85.0,
            interference_floor_dbm=-95.0,
        )
        assert medium.fanout_census() == {}
        medium._build_tx_fanout(0)
        assert medium.fanout_census()[0] == (1, 1)  # 2 at -87.3: noise-only

        medium.set_position(2, Position(200, 0))  # -104.6: below the floor
        medium._build_tx_fanout(0)
        assert medium.fanout_census()[0] == (1, 0)

        medium.set_position(2, Position(30, 0))  # -77.4: full entry again
        medium._build_tx_fanout(0)
        assert medium.fanout_census()[0] == (2, 0)

    def test_move_of_out_of_range_node_keeps_unrelated_tables(self):
        """A far node shuffling around must not rebuild tables it is not in."""
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(400, 0)}
        sim, medium, radios, macs = build(positions, dynamic=True)
        medium._build_tx_fanout(0)
        builds = medium.fanout_rebuilds
        version = medium._fanout_version[0]

        medium.set_position(2, Position(410, 0))  # still far below cutoff
        assert medium.geometry_version > 0
        # Table 0 was revalidated in place, not left stale.
        assert medium._fanout_version[0] == medium._geometry_version
        # A transmit-side rebuild would bump the counter; fetch the cached
        # table the way transmit() does.
        assert medium._fanout_version.get(0) == medium._geometry_version
        assert medium.fanout_rebuilds == builds

        # Moving into range invalidates and the next build includes it.
        medium.set_position(2, Position(40, 0))
        assert medium._fanout_version.get(0) != medium._geometry_version
        medium._build_tx_fanout(0)
        assert medium.fanout_rebuilds == builds + 1
        assert 2 in medium._fanout_members[0]
        assert version != medium._fanout_version[0]

    def test_mover_own_table_always_stale(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(400, 0)}
        sim, medium, radios, macs = build(positions, dynamic=True)
        medium._build_tx_fanout(2)
        medium.set_position(2, Position(410, 0))
        assert medium._fanout_version[2] != medium._geometry_version

    def test_member_move_invalidates_table(self):
        positions = {0: Position(0, 0), 1: Position(20, 0)}
        sim, medium, radios, macs = build(positions, dynamic=True)
        medium._build_tx_fanout(0)
        medium.set_position(1, Position(25, 0))  # gain changed, still member
        assert medium._fanout_version[0] != medium._geometry_version
        starts, _ = medium._build_tx_fanout(0)
        assert starts[0][1] == medium.rss.rss(0, 1)  # fresh gain

    def test_churn_detach_reattach_reculls(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(70, 0)}
        sim, medium, radios, macs = build(
            positions,
            delivery_floor_dbm=-85.0,
            interference_floor_dbm=-95.0,
        )
        medium._build_tx_fanout(0)
        assert medium.fanout_census()[0] == (1, 1)
        medium.detach(radios[2])
        medium._build_tx_fanout(0)
        assert medium.fanout_census()[0] == (1, 0)
        medium.attach(radios[2])
        medium._build_tx_fanout(0)
        assert medium.fanout_census()[0] == (1, 1)


class TestIdleNodes:
    def test_non_endpoints_never_transmit(self):
        """A scale-sweep node outside every flow only listens: DCF sends
        nothing unprompted, and a CMAP interferer list fills only from data
        addressed to its node (``two_hop_ilist`` is off), so it has nothing
        to gossip either."""
        from unittest import mock

        from repro.experiments import executor
        from repro.experiments.runners import build_scale_sweep
        from repro.network import Network

        nets = []

        class Recording(Network):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nets.append(self)

        _topo, testbed, spec = build_scale_sweep(
            ExperimentScale(duration=0.3, warmup=0.1, trials_per_n=1),
            1,
            ns=(16,),
            topologies=("uniform",),
        )[0]
        assert [t.mac.protocol for t in spec.trials] == ["dcf", "cmap"]
        with mock.patch.object(executor, "Network", Recording):
            for trial in spec.trials:
                run_trial(testbed, trial)
        for net, trial in zip(nets, spec.trials):
            endpoints = {n for flow in trial.flows for n in flow}
            idle = set(net.nodes) - endpoints
            assert len(idle) == 16 - len(endpoints) > 0
            assert all(net.nodes[n].radio.stats.tx_frames == 0 for n in idle)
            assert all(net.nodes[s].radio.stats.tx_frames > 0 for s, _ in trial.flows)
