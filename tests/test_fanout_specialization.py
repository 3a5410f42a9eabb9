"""Build-time-specialized fan-out entries: lockstep bit-identity with the
generic receive path, and rebuild-on-invalidation (geometry + config).

The medium compiles per-receiver start/end closures at table-build time
(``Radio.bind_*_entry``). Two things must hold:

* a specialized closure replays the generic ``on_*`` method exactly —
  same branches, same floats, same RNG consumption — over any arrival
  sequence (lockstep tests drive twin radios through both paths);
* specializations die with their table: any geometry change or radio
  config reassignment (e.g. CS-threshold tuning) makes the table stale,
  and the rebuilt table binds fresh closures compiled from the new state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.fading import GaussianBlockFading
from repro.phy.frames import Frame
from repro.phy.medium import Medium, Transmission
from repro.phy.modulation import SinrThresholdErrorModel
from repro.phy.propagation import DynamicRssMatrix, LogDistance, Position
from repro.phy.radio import Radio, RadioConfig, RadioState
from repro.sim.engine import Simulator
from repro.util.rng import RngFactory
from repro.util.units import dbm_to_mw


def make_tx(src, start=0.0, end=1.0, dst=0):
    frame = Frame(src=src, dst=dst, size_bytes=100)
    return Transmission(frame, src, start, end)


#: A node that is neither the twins' own id (0) nor broadcast.
THIRD_NODE = 7


class SpyMac:
    def __init__(self):
        self.events = []

    def on_frame_received(self, frame, ok, reception):
        self.events.append(("rx", frame.uid, ok))

    def on_tx_complete(self, frame):
        self.events.append(("tx_done", frame.uid, None))

    def on_channel_busy(self):
        self.events.append(("busy", None, None))

    def on_channel_idle(self):
        self.events.append(("idle", None, None))


def twin_radios(fading=None, reads_overheard=None):
    """Two radios in identical state with identical RNG streams.

    ``reads_overheard`` is what a MAC declares on attach (see
    ``MacBase.READS_OVERHEARD``); the spy MAC reads everything by default.
    """
    radios = []
    for _ in range(2):
        cfg = RadioConfig(fading=fading)
        r = Radio(Simulator(), node_id=0, config=cfg,
                  rng=np.random.default_rng(42))
        r.mac = SpyMac()
        r.reads_overheard = reads_overheard
        radios.append(r)
    return radios


def assert_lockstep(spec, ref):
    assert spec._arrivals == ref._arrivals
    assert spec._sensed == ref._sensed
    assert spec._state == ref._state
    assert spec.stats == ref.stats
    assert spec.mac.events == ref.mac.events
    assert spec.interference_mw() == ref.interference_mw()
    assert (spec._excl_valid, spec._excl_uid) == (ref._excl_valid, ref._excl_uid)
    assert (spec._sync is None) == (ref._sync is None)
    if spec._sync is not None:
        assert spec._sync.rss_dbm == ref._sync.rss_dbm
        assert spec._sync.scored == ref._sync.scored
        assert spec._sync._interference == ref._sync._interference


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "tx_toggle"]),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=-104.0, max_value=-40.0),
    ),
    min_size=1,
    max_size=40,
)


class TestSpecializedLockstep:
    """Drive one radio through specialized closures, its twin through the
    generic methods, and require bit-identical state after every step."""

    def run_ops(
        self,
        ops,
        fading,
        reads_overheard=None,
        dst_of=lambda src: 0,
        energy_only=frozenset(),
    ):
        """Apply ``ops`` to twin radios, then end every frame still on the
        air. Sources in ``energy_only`` use the interference-only entries.
        Returns the twins and every transmission started."""
        spec, ref = twin_radios(fading=fading, reads_overheard=reads_overheard)
        live = {}
        sent = []

        def end(src, tx, rss0):
            if src in energy_only:
                spec.bind_interference_end_entry()(tx)
                ref.on_interference_end(tx, rss0)
            else:
                spec.bind_end_entry(rss0)(tx)
                ref.on_frame_end(tx, rss0)

        for op, src, rss in ops:
            if op == "add" and src not in live:
                tx = make_tx(src, dst=dst_of(src))
                live[src] = (tx, rss)
                sent.append(tx)
                rss_mw = dbm_to_mw(rss)
                if src in energy_only:
                    spec.bind_interference_start_entry(rss, rss_mw)(tx)
                    ref.on_interference_start(tx, rss, rss_mw)
                else:
                    spec.bind_start_entry(src, rss, rss_mw)(tx)
                    ref.on_frame_start(tx, rss, rss_mw)
            elif op == "remove" and src in live:
                end(src, *live.pop(src))
            elif op == "tx_toggle" and spec._sync is None:
                new = (RadioState.TX if spec._state is not RadioState.TX
                       else RadioState.IDLE)
                spec._state = new
                ref._state = new
            assert_lockstep(spec, ref)
        for src, (tx, rss0) in live.items():
            end(src, tx, rss0)
            assert_lockstep(spec, ref)
        return spec, ref, sent

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_static_channel(self, ops):
        self.run_ops(ops, fading=None)

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS, faded=st.booleans())
    def test_unread_frames_for_a_third_node(self, ops, faded):
        """A MAC that declares it reads no overheard kind; odd sources send
        to a third node, source 6 is energy-only. Those receptions go
        unscored on both paths — identical state, stats and RNG position
        — and no ``on_frame_received`` arrives for any of them."""
        spec, ref, sent = self.run_ops(
            ops,
            fading=GaussianBlockFading(sigma_db=6.0) if faded else None,
            reads_overheard=(),
            dst_of=lambda src: THIRD_NODE if src % 2 else 0,
            energy_only=frozenset({6}),
        )
        unread = {tx.frame.uid for tx in sent if tx.frame.dst == THIRD_NODE}
        for radio in (spec, ref):
            heard = [uid for kind, uid, _ in radio.mac.events if kind == "rx"]
            assert not unread.intersection(heard)
            stats = radio.stats
            assert len(heard) == stats.delivered_ok + stats.delivered_corrupt
        # Every completed reception drew one delivery coin, read or not.
        assert spec.rng.random() == ref.rng.random()

    def test_unread_frame_draws_its_coin_and_nothing_else(self):
        spec, ref = twin_radios(reads_overheard=())
        overheard = make_tx(1, dst=THIRD_NODE)
        noise = make_tx(2)
        spec.bind_start_entry(1, -60.0, dbm_to_mw(-60.0))(overheard)
        ref.on_frame_start(overheard, -60.0, dbm_to_mw(-60.0))
        spec.bind_interference_start_entry(-80.0, dbm_to_mw(-80.0))(noise)
        ref.on_interference_start(noise, -80.0, dbm_to_mw(-80.0))
        for radio in (spec, ref):
            assert radio._sync is not None and not radio._sync.scored
            # Nothing was recorded for it: only the sync-time level.
            assert radio._sync._interference == [0.0]
            with pytest.raises(ValueError):
                radio._sync.min_sinr_db(radio._noise_mw)
        spec.bind_interference_end_entry()(noise)
        ref.on_interference_end(noise, -80.0)
        spec.bind_end_entry(-60.0)(overheard)
        ref.on_frame_end(overheard, -60.0)
        assert_lockstep(spec, ref)
        coin = np.random.default_rng(42)
        coin.random()
        for radio in (spec, ref):
            assert radio._state is RadioState.IDLE and radio._sync is None
            assert radio.stats.delivered_unscored == 1
            assert radio.stats.delivered_ok + radio.stats.delivered_corrupt == 0
            assert not [e for e in radio.mac.events if e[0] == "rx"]
        # The stream sits exactly one coin past its seed on both paths.
        expected = coin.random()
        assert spec.rng.random() == expected == ref.rng.random()

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_faded_channel(self, ops):
        # Per-frame fading exercises the sampler-bound closure variant and
        # proves RNG consumption order is unchanged (any divergence skews
        # every subsequent draw and the lockstep assertions fail).
        self.run_ops(ops, fading=GaussianBlockFading(sigma_db=6.0))

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_interference_only_entries(self, ops):
        spec, ref = twin_radios()
        live = {}
        for op, src, rss in ops:
            if op == "add" and src not in live:
                tx = make_tx(src)
                live[src] = (tx, rss)
                rss_mw = dbm_to_mw(rss)
                spec.bind_interference_start_entry(rss, rss_mw)(tx)
                ref.on_interference_start(tx, rss, rss_mw)
            elif op == "remove" and src in live:
                tx, rss0 = live.pop(src)
                spec.bind_interference_end_entry()(tx)
                ref.on_interference_end(tx, rss0)
            assert_lockstep(spec, ref)


def build_world(positions, fading=None, dynamic=True, **medium_kw):
    sim = Simulator()
    rss = DynamicRssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    if not dynamic:
        raise NotImplementedError
    medium = Medium(sim, rss, **medium_kw)
    cfg = RadioConfig(error_model=SinrThresholdErrorModel(), fading=fading)
    rngs = RngFactory(7)
    radios = {}
    for nid in positions:
        radios[nid] = Radio(sim, nid, cfg, rngs.stream("r", nid))
        medium.attach(radios[nid])
        radios[nid].mac = SpyMac()
    return sim, medium, radios


class TestSpecializationInvalidation:
    POSITIONS = {0: Position(0, 0), 1: Position(20, 0), 2: Position(70, 0)}

    def test_callback_columns_mirror_metadata(self):
        _, medium, _ = build_world(self.POSITIONS)
        starts, ends = medium._build_tx_fanout(0)
        start_fns, end_fns = medium._fanout_fns[0]
        assert start_fns == tuple(e[0] for e in starts)
        assert end_fns == tuple(e[0] for e in ends)
        assert [fn.__name__ for fn in start_fns] == ["on_frame_start"] * 2
        assert [fn.__name__ for fn in end_fns] == ["on_frame_end"] * 2

    def test_config_reassignment_invalidates_and_rebinds(self):
        _, medium, radios = build_world(self.POSITIONS)
        medium._build_tx_fanout(0)
        old_fns = medium._fanout_fns[0]
        version = medium.geometry_version

        # Node 1 swaps its config (the CS-tuning MAC's move): every table
        # that may include it goes stale at the fan-out cache's own
        # invalidation point.
        radios[1].config = replace(
            radios[1].config, cs_threshold_dbm=-60.0
        )
        assert medium.geometry_version == version + 1
        assert medium._fanout_version[0] != medium._geometry_version

        medium._build_tx_fanout(0)
        new_fns = medium._fanout_fns[0]
        assert new_fns != old_fns  # fresh closures, not recycled ones

    def test_config_change_alters_specialized_carrier_sense(self):
        # rss(0->1) at 20 m is ~-71.6 dBm: sensed under the default
        # -95 dBm threshold, silent under a deafened -60 dBm one.
        sim, medium, radios = build_world({0: Position(0, 0), 1: Position(20, 0)})
        radios[0].transmit(Frame(src=0, dst=1, size_bytes=200))
        sim.run()
        assert ("busy", None, None) in radios[1].mac.events

        radios[1].mac.events.clear()
        radios[1].config = replace(radios[1].config, cs_threshold_dbm=-60.0)
        radios[0].transmit(Frame(src=0, dst=1, size_bytes=200))
        sim.run()
        assert ("busy", None, None) not in radios[1].mac.events

    def test_geometry_change_rebinds_with_fresh_rss(self):
        _, medium, radios = build_world(self.POSITIONS)
        starts, _ = medium._build_tx_fanout(0)
        old_fns = medium._fanout_fns[0]
        medium.set_position(1, Position(25, 0))
        assert medium._fanout_version[0] != medium._geometry_version
        new_starts, _ = medium._build_tx_fanout(0)
        assert medium._fanout_fns[0] != old_fns
        assert new_starts[0][1] == medium.rss.rss(0, 1)  # fresh gain

    def test_fading_model_swap_rebinds_samplers(self):
        sim, medium, radios = build_world(
            {0: Position(0, 0), 1: Position(20, 0)},
            fading=GaussianBlockFading(sigma_db=0.0),
        )
        medium._build_tx_fanout(0)
        assert radios[1]._sampler_model is radios[1].config.fading

        swapped = GaussianBlockFading(sigma_db=4.0)
        radios[1].config = replace(radios[1].config, fading=swapped)
        assert medium._fanout_version.get(0) != medium._geometry_version
        medium._build_tx_fanout(0)
        # The rebuilt entry resolved its sampler from the new model.
        assert radios[1]._sampler_model is swapped

    def test_interference_only_entries_specialize_too(self):
        _, medium, radios = build_world(
            self.POSITIONS,
            delivery_floor_dbm=-85.0,
            interference_floor_dbm=-95.0,
        )
        starts, ends = medium._build_tx_fanout(0)
        names = [fn.__name__ for fn, *_ in starts]
        assert names == ["on_frame_start", "on_interference_start"]
        radios[2].config = replace(radios[2].config, cs_threshold_dbm=-60.0)
        assert medium._fanout_version[0] != medium._geometry_version
