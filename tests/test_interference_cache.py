"""The radio's interference cache must be invisible: bit-identical to a
fresh insertion-order re-sum of the arrival set, under any sequence of
arrivals, departures, and repeated queries. Edges are delivered through
the radio's fan-out closures (``Radio.bind_*_entry``), its only receive
path."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.frames import Frame
from repro.phy.medium import Transmission
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator


def make_radio():
    cfg = RadioConfig(fading=None)
    return Radio(Simulator(), node_id=0, config=cfg, rng=np.random.default_rng(7))


def fresh_insertion_order_sum(radio, excluding_uid=None):
    """The reference: the exact loop the uncached implementation ran."""
    total = 0.0
    for uid, rss_mw in radio._arrivals.items():
        if uid != excluding_uid:
            total += rss_mw
    return total


def make_tx(uid_frame_src, rss_dbm):
    frame = Frame(src=uid_frame_src, dst=0, size_bytes=100)
    return Transmission(frame, uid_frame_src, 0.0, 1.0)


def start(radio, tx, rss_dbm):
    """Deliver a frame start through the radio's fan-out closure."""
    radio.bind_start_entry(tx.tx_node, rss_dbm)(tx)


def end(radio, tx):
    """Deliver a frame end through the radio's fan-out closure."""
    radio.bind_end_entry()(tx)


class TestCacheBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "query"]),
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=-104.0, max_value=-40.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_cached_equals_fresh_resum(self, ops):
        radio = make_radio()
        live = {}  # src -> Transmission
        for op, src, rss in ops:
            if op == "add" and src not in live:
                tx = make_tx(src, rss)
                live[src] = tx
                start(radio, tx, rss)
            elif op == "remove" and src in live:
                tx = live.pop(src)
                end(radio, tx)
            # After every mutation (and on explicit query ops), the cached
            # aggregate must equal a fresh insertion-order re-sum for every
            # exclusion that can occur: each live uid, a foreign uid, None.
            exclusions = [None, -1] + [t.uid for t in live.values()]
            for excl in exclusions:
                expected = fresh_insertion_order_sum(radio, excl)
                got = radio.interference_mw(excl)
                assert got == expected  # bit-identical, not approx
                # And the cache itself must serve the same bits again.
                assert radio.interference_mw(excl) == expected

    def test_cache_invalidated_by_arrival(self):
        radio = make_radio()
        a = make_tx(1, -60.0)
        start(radio, a, -60.0)
        first = radio.interference_mw()
        b = make_tx(2, -70.0)
        start(radio, b, -70.0)
        second = radio.interference_mw()
        assert second > first
        assert second == fresh_insertion_order_sum(radio)

    def test_cache_invalidated_by_departure(self):
        radio = make_radio()
        a, b = make_tx(1, -60.0), make_tx(2, -70.0)
        start(radio, a, -60.0)
        start(radio, b, -70.0)
        before = radio.interference_mw()
        end(radio, b)
        after = radio.interference_mw()
        assert after < before
        assert after == fresh_insertion_order_sum(radio)

    def test_exclusion_distinct_from_total(self):
        radio = make_radio()
        a, b = make_tx(1, -60.0), make_tx(2, -70.0)
        start(radio, a, -60.0)
        start(radio, b, -70.0)
        assert radio.interference_mw(a.uid) == fresh_insertion_order_sum(
            radio, a.uid
        )
        assert radio.interference_mw(a.uid) != radio.interference_mw()

    def test_empty_arrivals_zero(self):
        radio = make_radio()
        assert radio.interference_mw() == 0.0
        assert radio.interference_mw(123) == 0.0


class TestIncrementalFold:
    """White-box: appends must *extend* a valid exclusion fold (never
    re-sum), and removals must invalidate it — the rule-2 contract the
    incremental implementation lives by. The total has no fold: it is the
    plain insertion-order loop on every query."""

    def test_append_extends_valid_fold(self):
        """Both start closures — full-delivery and energy-only, which
        inline the maintenance — extend a valid fold."""
        radio = make_radio()
        a = make_tx(1, -60.0)
        start(radio, a, -60.0)  # syncs: a.uid is the hot exclusion
        entries = [
            radio.bind_start_entry(9, -70.0),
            radio.bind_interference_start_entry(-70.0, 1e-7),
        ]
        start(radio, make_tx(2, -70.0), -70.0)  # arms the slot
        for src, entry in enumerate(entries, start=3):
            assert radio._excl_valid and radio._excl_uid == a.uid
            before = radio._excl_total
            tx = make_tx(src, -70.0)
            entry(tx)
            # Extended in place (no invalidation), and the extension is
            # bit-identical to the fresh insertion-order re-sum.
            assert radio._excl_valid and radio._excl_uid == a.uid
            assert radio._excl_total == before + radio._arrivals[tx.uid]
            assert radio._excl_total == fresh_insertion_order_sum(radio, a.uid)

    def test_append_extends_exclusion_fold(self):
        radio = make_radio()
        a, b = make_tx(1, -60.0), make_tx(2, -70.0)
        start(radio, a, -60.0)
        start(radio, b, -70.0)
        excl = radio.interference_mw(a.uid)  # arms the exclusion slot
        assert radio._excl_valid and radio._excl_uid == a.uid
        c = make_tx(3, -65.0)
        start(radio, c, -65.0)
        assert radio._excl_valid  # extended, not invalidated
        assert radio.interference_mw(a.uid) == excl + radio._arrivals[c.uid]
        assert radio.interference_mw(a.uid) == fresh_insertion_order_sum(
            radio, a.uid
        )

    def test_removal_invalidates_fold(self):
        # Sub-sensitivity arrivals: no sync forms, so the end path cannot
        # itself re-validate the fold by querying it.
        radio = make_radio()
        a, b, c = make_tx(1, -91.0), make_tx(2, -92.0), make_tx(3, -92.5)
        for t, rss in ((a, -91.0), (b, -92.0), (c, -92.5)):
            start(radio, t, rss)
        radio.interference_mw(a.uid)
        assert radio._excl_valid
        end(radio, b)
        assert not radio._excl_valid
        # The post-removal re-sum runs the full insertion-order loop.
        assert radio.interference_mw() == fresh_insertion_order_sum(radio)
        assert radio.interference_mw(a.uid) == fresh_insertion_order_sum(
            radio, a.uid
        )

    def test_position_change_invalidates_folds(self):
        radio = make_radio()
        a, b = make_tx(1, -60.0), make_tx(2, -70.0)
        start(radio, a, -60.0)
        start(radio, b, -70.0)
        radio.interference_mw(a.uid)
        assert radio._excl_valid
        radio.on_position_changed()
        assert not radio._excl_valid
        # Arrivals keep their launch RSS, so the re-sum is value-identical.
        assert radio.interference_mw(a.uid) == fresh_insertion_order_sum(
            radio, a.uid
        )

    def test_exclusion_of_absent_uid_equals_total(self):
        radio = make_radio()
        a, b = make_tx(1, -60.0), make_tx(2, -70.0)
        start(radio, a, -60.0)
        start(radio, b, -70.0)
        total = radio.interference_mw()
        # Excluding a uid not on the air sums the same terms in the same
        # order as the total — one value, bit-identical.
        assert radio.interference_mw(-1) == total
        assert radio.interference_mw(-1) == fresh_insertion_order_sum(radio, -1)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "excl_a", "excl_b", "total"]),
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=-104.0, max_value=-40.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_exclusion_slot_churn_lockstep(self, ops):
        """Alternating exclusion targets (slot churn) stays bit-identical
        to the fresh re-sum — the single-slot fold must re-sum on every
        slot switch, never serve a stale exclusion."""
        radio = make_radio()
        live = {}
        for op, src, rss in ops:
            if op == "add" and src not in live:
                tx = make_tx(src, rss)
                live[src] = tx
                start(radio, tx, rss)
            elif op == "remove" and src in live:
                end(radio, live.pop(src))
            elif op in ("excl_a", "excl_b") and live:
                uids = sorted(t.uid for t in live.values())
                uid = uids[0] if op == "excl_a" else uids[-1]
                assert radio.interference_mw(uid) == fresh_insertion_order_sum(
                    radio, uid
                )
            elif op == "total":
                assert radio.interference_mw() == fresh_insertion_order_sum(radio)
