"""The fan-out closures are the radio's receive path: their contracts, and
rebuild-on-invalidation (geometry + config).

The medium binds per-receiver start/end closures at table-build time
(``Radio.bind_*_entry``). Two things must hold:

* after every edge the radio agrees with a small model of the receive path
  (:class:`ContractDriver`): the arrival set and its order, carrier sense,
  the RX state, one start counter per start edge, busy/idle callbacks
  exactly on carrier-sense transitions, and interference values equal to a
  fresh insertion-order re-sum;
* closures die with their table: any geometry change or radio config
  reassignment (e.g. CS-threshold tuning) makes the table stale, and the
  rebuilt table binds fresh closures compiled from the new state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.fading import GaussianBlockFading, NoFading
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


#: A node that is neither the radios' own id (0) nor broadcast.
THIRD_NODE = 7

#: A start edge bumps exactly one of these, unless it syncs an idle radio.
START_COUNTERS = (
    "sync_missed_weak",
    "sync_missed_capture",
    "sync_missed_busy_rx",
    "sync_missed_busy_tx",
    "rx_mim_captures",
    "interference_only_arrivals",
)
#: A completed reception bumps exactly one of these.
DELIVERY_COUNTERS = ("delivered_ok", "delivered_corrupt", "delivered_unscored")


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


def make_radio(fading=None, reads_overheard=None):
    """A radio with a spy MAC and a fixed RNG seed.

    ``reads_overheard`` is what a MAC declares on attach (see
    ``MacBase.READS_OVERHEARD``); the spy MAC reads everything by default.
    """
    radio = Radio(Simulator(), node_id=0, config=RadioConfig(fading=fading),
                  rng=np.random.default_rng(42))
    radio.mac = SpyMac()
    radio.reads_overheard = reads_overheard
    return radio


def fresh_resum(radio, excluding_uid):
    """The insertion-order sum of the arrival set without one uid."""
    total = 0.0
    for uid, rss_mw in radio._arrivals.items():
        if uid != excluding_uid:
            total += rss_mw
    return total


def total(stats, names):
    return sum(getattr(stats, name) for name in names)


class ContractDriver:
    """Drives one radio through its fan-out closures and, after every edge,
    checks the radio against a model of what the edges promise."""

    def __init__(self, radio):
        self.radio = radio
        #: uid -> the (faded) RSS in dBm of each live arrival, in arrival order.
        self.rss = {}
        self.transmitting = False
        #: The busy/idle callbacks the MAC should have seen so far.
        self.edges = []
        #: Every fade the bound samplers drew, in order.
        self.draws = []
        sampler_for = radio._sampler_for

        def recording_sampler_for(tx_node):
            sampler = sampler_for(tx_node)

            def sample():
                draw = sampler()
                self.draws.append(draw)
                return draw

            return sample

        radio._sampler_for = recording_sampler_for

    def start(self, tx, base_rss, energy_only=False):
        radio = self.radio
        if energy_only:
            entry = radio.bind_interference_start_entry(
                base_rss, dbm_to_mw(base_rss)
            )
        else:
            entry = radio.bind_start_entry(tx.tx_node, base_rss)
        drawn = len(self.draws)
        idle = radio._sync is None
        starts = total(radio.stats, START_COUNTERS)
        was_busy = radio.is_channel_busy()
        entry(tx)
        # A full-delivery edge draws one fade first; an energy-only edge none.
        assert len(self.draws) == drawn + (not energy_only)
        self.rss[tx.uid] = base_rss if energy_only else base_rss + self.draws[-1]
        synced = idle and radio._sync is not None and radio._sync.transmission is tx
        assert total(radio.stats, START_COUNTERS) == starts + (not synced)
        self.check(was_busy)

    def end(self, tx, energy_only=False):
        radio = self.radio
        if energy_only:
            entry = radio.bind_interference_end_entry()
        else:
            entry = radio.bind_end_entry()
        completes = radio._sync is not None and radio._sync.transmission is tx
        starts = total(radio.stats, START_COUNTERS)
        delivered = total(radio.stats, DELIVERY_COUNTERS)
        was_busy = radio.is_channel_busy()
        entry(tx)
        del self.rss[tx.uid]
        assert total(radio.stats, START_COUNTERS) == starts
        assert total(radio.stats, DELIVERY_COUNTERS) == delivered + completes
        self.check(was_busy)

    def toggle_tx(self):
        """Switch the transmitter on or off between edges (no callback)."""
        self.transmitting = not self.transmitting
        self.radio._state = RadioState.TX if self.transmitting else RadioState.IDLE

    def check(self, was_busy):
        radio = self.radio
        busy = radio.is_channel_busy()
        if busy != was_busy:
            self.edges.append("busy" if busy else "idle")
        seen = [kind for kind, _, _ in radio.mac.events if kind in ("busy", "idle")]
        assert seen == self.edges
        assert list(radio._arrivals) == list(self.rss)
        assert list(radio._arrivals.values()) == [
            dbm_to_mw(rss) for rss in self.rss.values()
        ]
        cs_db = radio.config.cs_threshold_dbm
        assert radio._sensed == {uid for uid, rss in self.rss.items() if rss >= cs_db}
        sync = radio._sync
        assert (radio._state is RadioState.TX) == self.transmitting
        assert (radio._state is RadioState.RX) == (
            sync is not None and not self.transmitting
        )
        if sync is not None and sync.scored:
            assert sync._interference[-1] == fresh_resum(radio, sync.transmission.uid)
        if radio._excl_valid:
            assert radio._excl_total == fresh_resum(radio, radio._excl_uid)


def assert_lockstep(a, b):
    """Two radios hold bit-identical receive state."""
    assert a._arrivals == b._arrivals
    assert a._sensed == b._sensed
    assert a._state == b._state
    assert a.stats == b.stats
    assert a.mac.events == b.mac.events
    assert a.interference_mw() == b.interference_mw()
    assert (a._excl_valid, a._excl_uid) == (b._excl_valid, b._excl_uid)
    assert (a._sync is None) == (b._sync is None)
    if a._sync is not None:
        assert a._sync.rss_dbm == b._sync.rss_dbm
        assert a._sync.scored == b._sync.scored
        assert a._sync._interference == b._sync._interference


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
    """Drive radios through their fan-out closures only, checking the
    receive-path contracts after every edge (:class:`ContractDriver`)."""

    def run_ops(
        self,
        ops,
        radios,
        dst_of=lambda src: 0,
        energy_only=frozenset(),
        after_step=None,
    ):
        """Apply ``ops`` to every radio in ``radios``, then end every frame
        still on the air; ``after_step(radios)`` runs after each step.
        Sources in ``energy_only`` use the energy-only entries. Returns
        every transmission started."""
        drivers = [ContractDriver(radio) for radio in radios]
        live = {}
        sent = []

        def step(action):
            for driver in drivers:
                action(driver)
            if after_step is not None:
                after_step(radios)

        for op, src, rss in ops:
            quiet = src in energy_only
            if op == "add" and src not in live:
                tx = make_tx(src, dst=dst_of(src))
                live[src] = (tx, rss)
                sent.append(tx)
                step(lambda d: d.start(tx, rss, quiet))
            elif op == "remove" and src in live:
                tx, _ = live.pop(src)
                step(lambda d: d.end(tx, quiet))
            elif op == "tx_toggle" and radios[0]._sync is None:
                step(ContractDriver.toggle_tx)
        for src, (tx, _) in live.items():
            step(lambda d: d.end(tx, src in energy_only))
        return sent

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_static_channel(self, ops):
        self.run_ops(ops, [make_radio()])

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_faded_channel(self, ops):
        # Per-frame fading: the draw comes first on every full-delivery
        # edge and the faded RSS drives every threshold (the driver's
        # arrival and carrier-sense model is built from the draws).
        self.run_ops(ops, [make_radio(GaussianBlockFading(sigma_db=6.0))])

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_interference_only_entries(self, ops):
        self.run_ops(ops, [make_radio()], energy_only=frozenset(range(1, 7)))

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_static_channel_is_the_zero_fade(self, ops):
        """A static channel (``fading=None``) and ``NoFading()`` leave
        identical state, stats, MAC events and RNG position."""
        static, zero = make_radio(), make_radio(NoFading())
        self.run_ops(
            ops,
            [static, zero],
            energy_only=frozenset({6}),
            after_step=lambda radios: assert_lockstep(*radios),
        )
        assert static.rng.random() == zero.rng.random()

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS, faded=st.booleans())
    def test_unread_frames_for_a_third_node(self, ops, faded):
        """A MAC that declares it reads no overheard kind; odd sources send
        to a third node, source 6 is energy-only. Those receptions go
        unscored and no ``on_frame_received`` arrives for any of them."""
        radio = make_radio(
            GaussianBlockFading(sigma_db=6.0) if faded else None,
            reads_overheard=(),
        )
        sent = self.run_ops(
            ops,
            [radio],
            dst_of=lambda src: THIRD_NODE if src % 2 else 0,
            energy_only=frozenset({6}),
        )
        unread = {tx.frame.uid for tx in sent if tx.frame.dst == THIRD_NODE}
        heard = [uid for kind, uid, _ in radio.mac.events if kind == "rx"]
        assert not unread.intersection(heard)
        stats = radio.stats
        assert len(heard) == stats.delivered_ok + stats.delivered_corrupt

    @settings(max_examples=50, deadline=None)
    @given(ops=OPS, faded=st.booleans())
    def test_unread_frames_only_move_delivery_counts(self, ops, faded):
        """A radio whose MAC reads ``()`` and a twin that reads everything
        differ only in moving ok/corrupt counts to ``delivered_unscored``:
        same arrivals, carrier sense, state, syncs, busy/idle callbacks and
        RNG position, and the same delivery of every frame both read."""
        fading = GaussianBlockFading(sigma_db=6.0) if faded else None
        shipped = make_radio(fading, reads_overheard=())
        reader = make_radio(fading)

        def same_receive_state(radios):
            a, b = radios
            assert a._arrivals == b._arrivals
            assert a._sensed == b._sensed
            assert a._state == b._state
            assert (a._sync is None) == (b._sync is None)
            if a._sync is not None:
                assert a._sync.transmission is b._sync.transmission

        sent = self.run_ops(
            ops,
            [shipped, reader],
            dst_of=lambda src: THIRD_NODE if src % 2 else 0,
            energy_only=frozenset({6}),
            after_step=same_receive_state,
        )
        unread = {tx.frame.uid for tx in sent if tx.frame.dst == THIRD_NODE}
        assert shipped.mac.events == [
            e for e in reader.mac.events if e[0] != "rx" or e[1] not in unread
        ]
        got, want = vars(shipped.stats), vars(reader.stats)
        for key in want:
            if key not in DELIVERY_COUNTERS:
                assert got[key] == want[key], key
        assert total(shipped.stats, DELIVERY_COUNTERS) == total(
            reader.stats, DELIVERY_COUNTERS
        )
        assert want["delivered_unscored"] == 0
        assert got["delivered_ok"] <= want["delivered_ok"]
        assert got["delivered_corrupt"] <= want["delivered_corrupt"]
        # Every completed reception drew one delivery coin, read or not.
        assert shipped.rng.random() == reader.rng.random()

    def test_unread_frame_draws_its_coin_and_nothing_else(self):
        radio = make_radio(reads_overheard=())
        driver = ContractDriver(radio)
        overheard = make_tx(1, dst=THIRD_NODE)
        noise = make_tx(2)
        driver.start(overheard, -60.0)
        driver.start(noise, -80.0, energy_only=True)
        assert radio._sync is not None and not radio._sync.scored
        # Nothing was recorded for it: only the sync-time level.
        assert radio._sync._interference == [0.0]
        with pytest.raises(ValueError):
            radio._sync.min_sinr_db(radio._noise_mw)
        driver.end(noise, energy_only=True)
        driver.end(overheard)
        assert radio._state is RadioState.IDLE and radio._sync is None
        assert radio.stats.delivered_unscored == 1
        assert radio.stats.delivered_ok + radio.stats.delivered_corrupt == 0
        assert not [e for e in radio.mac.events if e[0] == "rx"]
        # The stream sits exactly one coin past its seed.
        coin = np.random.default_rng(42)
        coin.random()
        assert radio.rng.random() == coin.random()


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
