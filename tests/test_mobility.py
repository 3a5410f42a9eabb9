"""Dynamic-world tests: geometry epochs, mobility, churn, map adaptation.

Covers the PR's load-bearing guarantees:

* the epoch/versioned fan-out cache degenerates to the old single-build
  fast path for static scenarios (bit-identity is separately pinned by the
  goldens in ``tests/test_executor.py``);
* ``set_position`` selectively invalidates gain-derived state and frames
  launched before a move keep their old gains (quasi-static channel);
* ``detach``/churn keep per-radio bookkeeping balanced and are legal
  mid-run;
* mobility models and the controller are deterministic functions of the
  seed, identical across executor backends;
* conflict-map entries expire when geometry dissolves a conflict and
  re-form when it returns (the §3.4 adaptation acceptance test).
"""

import math

import pytest

from repro.core.cmap_mac import CmapMac
from repro.core.conflict_map import DeferTable, InterfererEntry, OngoingList
from repro.core.params import CmapParams, LatencyProfile
from repro.experiments.executor import ProcessPoolBackend, run_experiment, run_trial
from repro.experiments.runners import ExperimentScale, build_mobility_sweep
from repro.experiments.spec import MacSpec, MobilitySpec, TrialSpec
from repro.net.mobility import (
    MobilityController,
    RandomWaypoint,
    RegionHop,
    StaticModel,
    build_mobility_model,
)
from repro.net.testbed import Testbed
from repro.net.topology import FloorPlan
from repro.network import Network, cmap_factory, dcf_factory
from repro.phy.medium import Medium
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import (
    DynamicRssMatrix,
    LogDistance,
    Position,
    RssMatrix,
)
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import CbrSource, SaturatedSource, SinkRegistry
from repro.util.rng import RngFactory


# ----------------------------------------------------------------------
# Harness (mirrors tests/test_cmap_mac.py, with a dynamic matrix)
# ----------------------------------------------------------------------
def build_net(positions, params=None, seed=9, mac_cls=CmapMac, dynamic=True):
    sim = Simulator()
    cls = DynamicRssMatrix if dynamic else RssMatrix
    rss = cls(LogDistance(exponent=3.3), positions, 18.0)
    medium = Medium(sim, rss)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=None)
    rngs = RngFactory(seed)
    sink = SinkRegistry()
    macs = {}
    for node_id in positions:
        radio = Radio(sim, node_id, cfg, rngs.stream("radio", node_id))
        medium.attach(radio)
        mac = mac_cls(sim, node_id, radio, rngs.stream("mac", node_id),
                      params or fast_params())
        mac.attach_sink(sink.sink_for(node_id))
        macs[node_id] = mac
    return sim, medium, macs, sink


def fast_params(**kw):
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


# ----------------------------------------------------------------------
# DynamicRssMatrix
# ----------------------------------------------------------------------
class TestDynamicRssMatrix:
    POS = {0: Position(0, 0), 1: Position(30, 0), 2: Position(0, 40)}

    def test_values_identical_to_static_before_any_move(self):
        model = LogDistance(exponent=3.3)
        static = RssMatrix(model, self.POS, 18.0)
        dynamic = DynamicRssMatrix(model, self.POS, 18.0)
        for a in self.POS:
            for b in self.POS:
                if a != b:
                    assert dynamic.rss(a, b) == static.rss(a, b)

    def test_move_recomputes_only_pairs_involving_the_mover(self):
        model = LogDistance(exponent=3.3)
        dyn = DynamicRssMatrix(model, self.POS, 18.0)
        before = {(a, b): dyn.rss(a, b)
                  for a in self.POS for b in self.POS if a != b}
        dyn.set_position(2, Position(10, 40))
        for (a, b), old in before.items():
            if 2 in (a, b):
                assert dyn.rss(a, b) != old
            else:
                assert dyn.rss(a, b) == old

    def test_move_keeps_matrix_consistent_with_fresh_build(self):
        model = LogDistance(exponent=3.3)
        dyn = DynamicRssMatrix(model, self.POS, 18.0)
        new_pos = {**self.POS, 1: Position(90, 5)}
        dyn.set_position(1, new_pos[1])
        fresh = RssMatrix(model, new_pos, 18.0)
        for a in self.POS:
            for b in self.POS:
                if a != b:
                    assert dyn.rss(a, b) == fresh.rss(a, b)

    def test_epochs_and_version(self):
        dyn = DynamicRssMatrix(LogDistance(), self.POS, 18.0)
        assert dyn.version == 0 and dyn.epochs[1] == 0
        assert dyn.set_position(1, Position(5, 5)) == 1
        assert dyn.set_position(1, Position(6, 6)) == 2
        assert dyn.set_position(0, Position(1, 1)) == 1
        assert dyn.version == 3
        assert dyn.position(1) == Position(6, 6)

    def test_unknown_node_rejected(self):
        dyn = DynamicRssMatrix(LogDistance(), self.POS, 18.0)
        with pytest.raises(KeyError):
            dyn.set_position(99, Position(0, 0))


# ----------------------------------------------------------------------
# Medium geometry: epoch cache, set_position, detach
# ----------------------------------------------------------------------
class TestMediumGeometry:
    def test_set_position_requires_dynamic_matrix(self):
        sim, medium, macs, _ = build_net(
            {0: Position(0, 0), 1: Position(20, 0)}, dynamic=False
        )
        with pytest.raises(TypeError):
            medium.set_position(0, Position(5, 5))

    def test_move_out_of_range_stops_delivery_and_back_restores_it(self):
        positions = {0: Position(0, 0), 1: Position(20, 0)}
        sim, medium, macs, sink = build_net(positions)
        macs[0].attach_source(SaturatedSource(dst=1))
        for m in macs.values():
            m.start()
        sim.run(until=0.5)
        near = sink.flows[(0, 1)].delivered_unique
        assert near > 0

        medium.set_position(1, Position(20, 5000))  # below the energy cutoff
        sim.run(until=1.0)
        far = sink.flows[(0, 1)].delivered_unique
        # A frame or two in flight at the move may still land; then silence.
        assert far - near <= macs[0].params.nvpkt

        medium.set_position(1, Position(20, 0))
        sim.run(until=1.5)
        assert sink.flows[(0, 1)].delivered_unique > far

    def test_move_bumps_epoch_and_geometry_version(self):
        sim, medium, macs, _ = build_net({0: Position(0, 0), 1: Position(20, 0)})
        v0 = medium.geometry_version
        medium.set_position(0, Position(1, 0))
        assert medium.geometry_version == v0 + 1
        assert medium.position_epoch(0) == 1
        assert medium.position_epoch(1) == 0

    def test_radio_set_position_delegates(self):
        sim, medium, macs, _ = build_net({0: Position(0, 0), 1: Position(20, 0)})
        epoch = macs[0].radio.set_position(Position(2, 2))
        assert epoch == 1
        assert medium.rss.position(0) == Position(2, 2)

    def test_in_flight_frame_keeps_pre_move_gain(self):
        """A frame launched before a move delivers its end edge with the
        table captured at transmit time: arrivals stay balanced."""
        positions = {0: Position(0, 0), 1: Position(20, 0)}
        sim, medium, macs, _ = build_net(positions)
        radio1 = macs[1].radio
        macs[0].attach_source(SaturatedSource(dst=1))
        for m in macs.values():
            m.start()
        # Run until a frame is mid-air, then move the receiver far away.
        while not medium.active and sim.step():
            pass
        assert medium.active
        medium.set_position(1, Position(20, 5000))
        sim.run(until=2.0)
        assert radio1._arrivals == {}  # every start matched by an end

    def test_detach_excludes_node_from_future_fanout(self):
        positions = {0: Position(0, 0), 1: Position(20, 0), 2: Position(40, 0)}
        sim, medium, macs, sink = build_net(positions)
        macs[0].attach_source(SaturatedSource(dst=1))
        for m in macs.values():
            m.start()
        sim.run(until=0.3)
        heard_before = macs[2].radio.stats.delivered_ok
        assert heard_before > 0
        macs[2].stop()
        medium.detach(macs[2].radio)
        assert medium.attached_ids() == [0, 1]
        sim.run(until=0.8)
        assert macs[2].radio._arrivals == {}
        # Nothing new after the in-flight tail.
        tail = macs[2].radio.stats.delivered_ok - heard_before
        assert tail <= 2

    def test_detached_radio_drops_transmissions(self):
        sim, medium, macs, _ = build_net({0: Position(0, 0), 1: Position(20, 0)})
        radio = macs[0].radio
        medium.detach(radio)
        from repro.phy.frames import DataFrame
        from repro.phy.modulation import RATE_6M

        frame = DataFrame(src=0, dst=1, size_bytes=100, rate=RATE_6M)
        assert radio.transmit(frame) is None
        assert radio.stats.tx_dropped_detached == 1

    def test_detach_then_reattach(self):
        sim, medium, macs, _ = build_net({0: Position(0, 0), 1: Position(20, 0)})
        radio = macs[1].radio
        medium.detach(radio)
        with pytest.raises(ValueError):
            medium.detach(radio)
        medium.attach(radio)
        assert not radio.detached
        assert medium.attached_ids() == [0, 1]


# ----------------------------------------------------------------------
# Mobility models
# ----------------------------------------------------------------------
class TestMobilityModels:
    FLOOR = FloorPlan(280.0, 140.0)

    def test_random_waypoint_deterministic_per_seed(self):
        model = RandomWaypoint(self.FLOOR, speed_mps=1.5, step_interval=0.25)
        a = model.leg(Position(10, 10), RngFactory(3).stream("mobility", 0))
        b = model.leg(Position(10, 10), RngFactory(3).stream("mobility", 0))
        c = model.leg(Position(10, 10), RngFactory(4).stream("mobility", 0))
        assert a == b
        assert a != c

    def test_random_waypoint_stays_on_floor_and_respects_speed(self):
        model = RandomWaypoint(self.FLOOR, speed_mps=2.0, step_interval=0.5)
        rng = RngFactory(7).stream("mobility", 1)
        pos = Position(50, 50)
        for _ in range(20):
            steps = model.leg(pos, rng)
            assert steps
            for dt, nxt in steps:
                assert 0.0 <= nxt.x <= self.FLOOR.width_m
                assert 0.0 <= nxt.y <= self.FLOOR.height_m
                d = math.hypot(nxt.x - pos.x, nxt.y - pos.y)
                assert d <= 2.0 * dt + 1e-9
                pos = nxt

    def test_random_waypoint_pause_prepended(self):
        model = RandomWaypoint(self.FLOOR, speed_mps=1.0, pause_s=(1.0, 2.0))
        pos = Position(5, 5)
        steps = model.leg(pos, RngFactory(1).stream("mobility", 0))
        dt, first = steps[0]
        assert 1.0 <= dt <= 2.0
        assert first == pos  # dwell in place before walking

    def test_region_hop_targets_inside_regions(self):
        model = RegionHop(self.FLOOR, period=2.0)
        rng = RngFactory(5).stream("mobility", 2)
        for _ in range(20):
            ((dt, target),) = model.leg(Position(0, 0), rng)
            assert dt == 2.0
            assert 0.0 <= target.x <= self.FLOOR.width_m
            assert 0.0 <= target.y <= self.FLOOR.height_m

    def test_static_model_never_moves(self):
        assert StaticModel().leg(Position(1, 1), RngFactory(0).stream("x")) == ()

    def test_registry(self):
        assert isinstance(
            build_mobility_model("random_waypoint", self.FLOOR,
                                 {"speed_mps": 2.0}),
            RandomWaypoint,
        )
        assert isinstance(build_mobility_model("static", self.FLOOR), StaticModel)
        with pytest.raises(KeyError):
            build_mobility_model("teleport", self.FLOOR)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypoint(self.FLOOR, step_interval=0.0)
        with pytest.raises(ValueError):
            RegionHop(self.FLOOR, period=0.0)


# ----------------------------------------------------------------------
# MobilityController over a real Network
# ----------------------------------------------------------------------
class TestMobilityController:
    @pytest.fixture(scope="class")
    def testbed(self):
        return Testbed(seed=1)

    def _walked_net(self, testbed, seed=0):
        net = Network(testbed, run_seed=seed)
        nodes = testbed.node_ids[:2]
        for n in nodes:
            net.add_node(n, dcf_factory())
        net.add_saturated_flow(nodes[0], nodes[1])
        controller = MobilityController(net)
        controller.attach(
            nodes[0],
            RandomWaypoint(testbed.config.floor, speed_mps=2.0,
                           step_interval=0.25),
        )
        controller.start()
        net.run(duration=2.0, warmup=0.5)
        return net, controller, nodes

    def test_trajectories_and_results_reproducible(self, testbed):
        net1, c1, nodes = self._walked_net(testbed)
        net2, c2, _ = self._walked_net(testbed)
        assert c1.moves_applied == c2.moves_applied > 0
        assert net1.position_of(nodes[0]) == net2.position_of(nodes[0])
        assert net1.medium.position_epoch(nodes[0]) == \
            net2.medium.position_epoch(nodes[0])
        assert (net1.sink.throughput_bps(nodes[0], nodes[1], 1.5)
                == net2.sink.throughput_bps(nodes[0], nodes[1], 1.5))

    def test_static_only_controller_keeps_shared_matrix(self, testbed):
        net = Network(testbed, run_seed=0)
        nodes = testbed.node_ids[:2]
        for n in nodes:
            net.add_node(n, dcf_factory())
        controller = MobilityController(net)
        controller.attach(nodes[0], StaticModel())
        controller.start()
        net.run(duration=0.5)
        assert controller.moves_applied == 0
        # No copy-on-write upgrade: the degenerate fast path stays shared.
        assert net.medium.rss is testbed.rss

    def test_attach_after_start_rejected(self, testbed):
        net = Network(testbed, run_seed=0)
        controller = MobilityController(net)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.attach(testbed.node_ids[0], StaticModel())


# ----------------------------------------------------------------------
# Churn on a live Network
# ----------------------------------------------------------------------
class TestChurn:
    @pytest.fixture(scope="class")
    def testbed(self):
        return Testbed(seed=1)

    def test_leave_and_rejoin_mid_run(self, testbed):
        net = Network(testbed, run_seed=3)
        links = testbed.links
        pair = next(
            (a, b)
            for a in testbed.node_ids
            for b in testbed.node_ids
            if a != b and links.potential_tx_link(a, b)
        )
        s, r = pair
        factory = cmap_factory()
        net.add_node(s, factory)
        net.add_node(r, factory)
        net.add_saturated_flow(s, r)

        counts = {}

        def leave():
            net.remove_node(s)
            counts["at_leave"] = net.sink.flows[(s, r)].delivered_unique

        def rejoin():
            counts["before_rejoin"] = net.sink.flows[(s, r)].delivered_unique
            node = net.add_node(s, factory)
            assert node.mac._started  # mid-run adds start immediately
            net.add_saturated_flow(s, r)

        net.sim.call_later(1.0, leave)
        net.sim.call_later(2.0, rejoin)
        net.run(duration=3.0)

        assert counts["at_leave"] > 0
        # Nothing but the in-flight tail lands while the sender is away.
        assert counts["before_rejoin"] - counts["at_leave"] <= 1
        assert net.sink.flows[(s, r)].delivered_unique > counts["before_rejoin"]
        assert s in net.nodes and net.medium.attached_ids() == [r, s]

    def test_remove_unknown_node_raises(self, testbed):
        net = Network(testbed, run_seed=0)
        with pytest.raises(KeyError):
            net.remove_node(12345)

    def test_churn_trialspec_round_trip(self, testbed):
        """The declarative churn path: one sender toggles off and on."""
        links = testbed.links
        pairs = [
            (a, b)
            for a in testbed.node_ids
            for b in testbed.node_ids
            if a != b and links.potential_tx_link(a, b)
        ]
        (s1, r1) = pairs[0]
        (s2, r2) = next(p for p in pairs if not {s1, r1} & set(p))
        spec = TrialSpec(
            trial_id="churn-test",
            nodes=(s1, r1, s2, r2),
            flows=((s1, r1), (s2, r2)),
            mac=MacSpec.of("cmap"),
            run_seed=0,
            duration=4.0,
            warmup=1.0,
            churn=((1.5, "leave", s2), (2.5, "join", s2)),
        )
        result = run_trial(testbed, spec)
        assert result.mbps(s1, r1) > 0.0
        a = run_trial(testbed, spec)
        assert a.flow_mbps == result.flow_mbps  # deterministic
        static = TrialSpec(
            trial_id="churn-test",
            nodes=spec.nodes,
            flows=spec.flows,
            mac=spec.mac,
            run_seed=0,
            duration=4.0,
            warmup=1.0,
        )
        assert static.fingerprint() != spec.fingerprint()

    def test_initially_absent_node_joins_with_its_flow(self, testbed):
        links = testbed.links
        s, r = next(
            (a, b)
            for a in testbed.node_ids
            for b in testbed.node_ids
            if a != b and links.potential_tx_link(a, b)
        )
        spec = TrialSpec(
            trial_id="late-join",
            nodes=(s, r),
            flows=((s, r),),
            mac=MacSpec.of("dcf"),
            run_seed=0,
            duration=2.0,
            warmup=0.0,
            churn=((1.0, "join", s),),
        )
        result = run_trial(testbed, spec)
        late = result.mbps(s, r)
        full = run_trial(
            testbed,
            TrialSpec("full", (s, r), ((s, r),), MacSpec.of("dcf"), 0, 2.0, 0.0),
        ).mbps(s, r)
        assert 0.0 < late < full  # sent only in the second half

    def test_bad_churn_op_rejected(self, testbed):
        spec = TrialSpec(
            "bad", (0, 1), ((0, 1),), MacSpec.of("dcf"), 0, 1.0, 0.0,
            churn=((0.5, "explode", 0),),
        )
        with pytest.raises(ValueError):
            run_trial(testbed, spec)


# ----------------------------------------------------------------------
# §3.4 adaptation: entries expire and re-form as geometry changes
# ----------------------------------------------------------------------
class TestConflictMapAdaptation:
    def test_entries_expire_and_reform_after_moves(self):
        """The acceptance scenario: a CBR interferer parked beside the
        receiver is learned; walking it away dissolves the conflict (entries
        age out, stats pruned by the staleness horizon); walking it back
        re-forms the entries from fresh evidence."""
        positions = {
            0: Position(0, 0),    # sender under test
            1: Position(30, 0),   # its receiver
            9: Position(55, 0),   # interferer, ~3 dB above the signal at 1
            10: Position(85, 0),
        }
        params = CmapParams(
            nvpkt=8, nwindow=4, latency=LatencyProfile.hardware(),
            t_ackwait=0.5e-3, t_deferwait=0.5e-3,
            ilist_period=0.25, interf_min_samples=8,
            ilist_entry_timeout=1.5, defer_entry_timeout=1.5,
            map_staleness_horizon=5.0,
            # A saturated sender is half-duplex-deaf for most broadcast
            # slots; §3.1's ACK piggybacking is what keeps its defer table
            # refreshed (it always listens for its own ACKs).
            piggyback_ilist=True,
        )
        sim, medium, macs, sink = build_net(positions, params=params, seed=72)
        macs[0].attach_source(SaturatedSource(dst=1))
        cbr = CbrSource(sim, macs[9], dst=10, rate_bps=2e6)  # ~40 % duty
        for m in macs.values():
            m.start()
        cbr.start()

        def poll(until, step=0.25):
            """Entry presence sampled over a window: entries oscillate with
            the refresh/expiry cycle, so single instants prove nothing."""
            il_seen = defer_seen = 0
            pairs = set()
            while sim.now < until:
                sim.run(until=min(until, sim.now + step))
                entries = macs[1].interferer_list.entries(sim.now)
                if entries:
                    il_seen += 1
                    pairs.update((e.source, e.interferer) for e in entries)
                if macs[0].defer_table.entries(sim.now):
                    defer_seen += 1
            return il_seen, defer_seen, pairs

        # Phase 1 — learn: the conflict shows up at receiver and sender.
        il_seen, defer_seen, pairs = poll(3.0)
        assert il_seen > 0, "receiver never learned the interferer"
        assert defer_seen > 0, "sender never learned to defer"
        assert (0, 9) in pairs

        # Phase 2 — dissolve: interferer walks out of range; let the entry
        # timeouts and the staleness horizon flush, then verify silence.
        medium.set_position(9, Position(55, 1000))
        medium.set_position(10, Position(85, 1000))
        poll(6.5)  # flush window (entry timeouts expire in here)
        il_seen, defer_seen, _ = poll(9.5)
        assert il_seen == 0, "stale interferer entries survived the move"
        assert defer_seen == 0, "stale defer entries survived the move"
        # By now the last pre-move observation (~t=3) is past the 5 s
        # staleness horizon: the raw statistics must be gone too.
        assert list(macs[1].interferer_list._stats) == [], \
            "staleness horizon failed to prune dead loss statistics"

        # Phase 3 — re-form: the interferer returns, fresh evidence rebuilds
        # the map.
        medium.set_position(9, positions[9])
        medium.set_position(10, positions[10])
        il_seen, defer_seen, pairs = poll(13.5)
        assert il_seen > 0, "conflict did not re-form after the return"
        assert defer_seen > 0
        assert (0, 9) in pairs


# ----------------------------------------------------------------------
# OngoingList batched expiry (satellite: periodic sweep, O(1) trailers)
# ----------------------------------------------------------------------
class TestOngoingListSweep:
    def test_sweep_drops_expired_keeps_live(self):
        ol = OngoingList()
        ol.note_header(1, 2, end_time=1.0)
        ol.note_header(3, 4, end_time=10.0)
        # The batched sweep at t=5 reclaims the (1, 2) entry whose announced
        # end has long passed, without an active() call, and reports it.
        assert ol.sweep(5.0) == 1
        assert (1, 2) not in ol._entries
        assert (3, 4) in ol._entries
        assert ol.sweep(5.0) == 0  # idempotent until something else expires

    def test_trailer_is_o1_pop_only(self):
        ol = OngoingList()
        ol.note_header(1, 2, end_time=1.0)
        ol.note_header(3, 4, end_time=10.0)
        # Trailers close their own burst and nothing else — the old
        # opportunistic per-trailer sweep is gone (batched behind the
        # MAC's "sweep" timer); decisions never see expired entries
        # because active() deletes before reading.
        ol.note_trailer(7, 8, now=5.0)
        assert (1, 2) in ol._entries  # expired but awaiting the sweep
        assert ol.active(5.0) == [ol._entries[(3, 4)]]
        assert (1, 2) not in ol._entries  # active() still delete-before-read

    def test_trailer_keeps_live_entries(self):
        ol = OngoingList()
        ol.note_header(1, 2, end_time=9.0)
        ol.note_trailer(1, 2, now=3.0)  # closes its own burst only
        ol.note_header(3, 4, end_time=9.0)
        ol.note_trailer(5, 6, now=4.0)
        assert (3, 4) in ol._entries


class TestDeferTableSweep:
    def test_should_defer_skips_stale_without_deleting(self):
        table = DeferTable(entry_timeout=1.0)
        table.update_from_interferer_list(
            20, 30, [InterfererEntry(source=20, interferer=99)], now=0.0
        )
        assert table.should_defer(0.5, 30, 99, 77)
        # Past the timeout the verdict flips, but deletion is deferred to
        # the batched sweep — the hot path only skips.
        assert not table.should_defer(5.0, 30, 99, 77)
        assert len(table) == 1
        assert table.sweep(5.0) == 1
        assert len(table) == 0
        assert not table.should_defer(5.0, 30, 99, 77)


# ----------------------------------------------------------------------
# Mobility experiment: spec stability and backend equivalence
# ----------------------------------------------------------------------
class TestMobilityExperiment:
    @pytest.fixture(scope="class")
    def testbed(self):
        return Testbed(seed=1)

    @pytest.fixture(scope="class")
    def tiny(self):
        return ExperimentScale(configs=2, duration=4.0, warmup=1.5)

    def test_spec_stable_across_rebuilds(self, testbed, tiny):
        a = build_mobility_sweep(testbed, tiny, speeds=(0.0, 2.0))
        b = build_mobility_sweep(testbed, tiny, speeds=(0.0, 2.0))
        assert [t.trial_id for t in a.trials] == [t.trial_id for t in b.trials]
        assert [t.fingerprint() for t in a.trials] == [
            t.fingerprint() for t in b.trials
        ]

    def test_mobility_spec_pickles(self, testbed, tiny):
        import pickle

        spec = build_mobility_sweep(testbed, tiny, speeds=(2.0,))
        moving = [t for t in spec.trials if t.mobility is not None]
        assert moving
        for t in moving:
            clone = pickle.loads(pickle.dumps(t))
            assert clone == t
            assert clone.fingerprint() == t.fingerprint()

    def test_serial_and_pool_backends_identical(self, testbed, tiny):
        spec = build_mobility_sweep(testbed, tiny, speeds=(0.0, 2.0))
        serial = run_experiment(spec, testbed)
        pooled = run_experiment(
            build_mobility_sweep(testbed, tiny, speeds=(0.0, 2.0)),
            testbed,
            backend=ProcessPoolBackend(jobs=2),
        )
        assert serial.totals == pooled.totals

    def test_speed_zero_matches_plain_static_trial(self, testbed, tiny):
        spec = build_mobility_sweep(testbed, tiny, speeds=(0.0,))
        assert all(t.mobility is None for t in spec.trials)

    def test_mobility_composes_with_churn(self, testbed):
        """A walker keeps walking while churned out: a late-joining mobile
        sender must still have a live trajectory after it joins."""
        links = testbed.links
        s, r = next(
            (a, b)
            for a in testbed.node_ids
            for b in testbed.node_ids
            if a != b and links.potential_tx_link(a, b)
        )
        spec = TrialSpec(
            trial_id="mobile-late-join",
            nodes=(s, r),
            flows=((s, r),),
            mac=MacSpec.of("dcf"),
            run_seed=0,
            duration=3.0,
            warmup=0.0,
            mobility=MobilitySpec.of(
                "random_waypoint", nodes=(s,), speed_mps=2.0,
                step_interval=0.25,
            ),
            churn=((1.0, "join", s), (2.0, "leave", s), (2.5, "join", s)),
        )
        net = Network(testbed, run_seed=spec.run_seed)
        from repro.experiments.executor import run_trial

        result = run_trial(testbed, spec)
        assert result.mbps(s, r) > 0.0  # the joined walker transmitted

        # Re-run imperatively to inspect the trajectory: the walker must
        # accumulate moves across its whole absent/present lifecycle.
        net = Network(testbed, run_seed=0)
        net.add_node(r, dcf_factory())
        controller = MobilityController(net)
        controller.attach(
            s, RandomWaypoint(testbed.config.floor, speed_mps=2.0,
                              step_interval=0.25)
        )
        controller.start()
        net.sim.call_later(1.0, lambda: net.add_node(s, dcf_factory()))
        net.run(duration=3.0)
        assert net.medium.position_epoch(s) > 4  # moved before AND after join
        assert controller.moves_applied > 4

    def test_walkers_change_the_outcome(self, testbed, tiny):
        static = run_experiment(
            build_mobility_sweep(testbed, tiny, speeds=(0.0,)), testbed
        )
        moving = run_experiment(
            build_mobility_sweep(testbed, tiny, speeds=(3.0,)), testbed
        )
        assert static.totals[0.0] != moving.totals[3.0]
