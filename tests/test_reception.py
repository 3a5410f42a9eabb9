"""Unit tests for interval-based reception scoring."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.backend import reference_kernels
from repro.phy.frames import Frame
from repro.phy.medium import Transmission
from repro.phy.modulation import (
    NistErrorModel,
    RATE_6M,
    RATE_54M,
    SinrThresholdErrorModel,
)
from repro.phy.reception import Reception
from repro.util.units import dbm_to_mw, linear_to_db

NOISE_MW = dbm_to_mw(-93.0)
HARD = SinrThresholdErrorModel()  # threshold at RATE_6M.sinr50_1400_db = 5 dB


def make_reception(rss_dbm=-70.0, start=0.0, dur=1e-3, interference_mw=0.0):
    frame = Frame(src=0, dst=1, size_bytes=1400)
    tx = Transmission(frame, 0, start, start + dur)
    return Reception(tx, rss_dbm, start, start + dur, interference_mw)


class TestCleanReception:
    def test_strong_clean_frame_succeeds(self):
        r = make_reception(rss_dbm=-70.0)
        assert r.success_probability(HARD, NOISE_MW) == 1.0

    def test_weak_clean_frame_fails(self):
        # -92 dBm over -93 noise: SINR ~1 dB < 5 dB threshold.
        r = make_reception(rss_dbm=-92.0)
        assert r.success_probability(HARD, NOISE_MW) == 0.0

    def test_zero_duration_frame_trivially_succeeds(self):
        r = make_reception(dur=0.0)
        assert r.success_probability(HARD, NOISE_MW) == 1.0


class TestInterferenceIntervals:
    def test_interference_for_whole_frame_kills_it(self):
        # Interferer as strong as the signal: SINR ~0 dB.
        r = make_reception(rss_dbm=-70.0, interference_mw=dbm_to_mw(-70.0))
        assert r.success_probability(HARD, NOISE_MW) == 0.0

    def test_interference_in_middle_kills_hard_model(self):
        r = make_reception(rss_dbm=-70.0, dur=1e-3)
        r.interference_changed(0.4e-3, dbm_to_mw(-70.0))
        r.interference_changed(0.6e-3, 0.0)
        assert r.success_probability(HARD, NOISE_MW) == 0.0

    def test_interference_after_frame_start_only_counts_overlap(self):
        # Soft model: a brief overlap hurts less than a full overlap.
        em = NistErrorModel()
        r_short = make_reception(rss_dbm=-80.0, dur=1e-3)
        r_short.interference_changed(0.9e-3, dbm_to_mw(-82.0))
        r_long = make_reception(rss_dbm=-80.0, dur=1e-3,
                                interference_mw=dbm_to_mw(-82.0))
        p_short = r_short.success_probability(em, NOISE_MW)
        p_long = r_long.success_probability(em, NOISE_MW)
        assert p_short > p_long

    def test_interference_cleared_before_end(self):
        em = NistErrorModel()
        r = make_reception(rss_dbm=-80.0, dur=1e-3,
                           interference_mw=dbm_to_mw(-82.0))
        r.interference_changed(0.1e-3, 0.0)
        p_mostly_clean = r.success_probability(em, NOISE_MW)
        r2 = make_reception(rss_dbm=-80.0, dur=1e-3,
                            interference_mw=dbm_to_mw(-82.0))
        assert p_mostly_clean > r2.success_probability(em, NOISE_MW)

    def test_same_instant_changes_coalesce(self):
        r = make_reception(dur=1e-3)
        r.interference_changed(0.5e-3, 1e-9)
        r.interference_changed(0.5e-3, 2e-9)
        # Only one change-point at 0.5 ms, with the latest value.
        assert len(r._times) == len(r._interference) == 2
        assert r._times[-1] == 0.5e-3
        assert r._interference[-1] == 2e-9

    def test_min_sinr_reflects_peak_interference(self):
        r = make_reception(rss_dbm=-70.0, dur=1e-3)
        clean_sinr = r.min_sinr_db(NOISE_MW)
        r.interference_changed(0.5e-3, dbm_to_mw(-75.0))
        assert r.min_sinr_db(NOISE_MW) < clean_sinr

    def test_min_sinr_is_max_interference_sinr(self):
        """The documented semantics: min SINR == SINR at *peak* aggregate
        interference, even after the interference clears."""
        r = make_reception(rss_dbm=-70.0, dur=1e-3)
        peak = dbm_to_mw(-75.0)
        r.interference_changed(0.3e-3, peak)
        r.interference_changed(0.6e-3, 0.0)  # cleared before frame end
        expected = linear_to_db(dbm_to_mw(-70.0) / (peak + NOISE_MW))
        assert r.min_sinr_db(NOISE_MW) == expected

    def test_min_sinr_clean_frame_uses_zero_interference(self):
        r = make_reception(rss_dbm=-70.0, dur=1e-3)
        expected = linear_to_db(dbm_to_mw(-70.0) / NOISE_MW)
        assert r.min_sinr_db(NOISE_MW) == expected

    def test_min_sinr_refused_on_unscored_reception(self):
        # The radio records no change-points for an unscored reception, so
        # its one-entry history would read as a clean frame.
        r = make_reception(rss_dbm=-70.0, dur=1e-3)
        r.scored = False
        with pytest.raises(ValueError):
            r.min_sinr_db(NOISE_MW)

    def test_peak_survives_coalescing_overwrite_upward(self):
        # A same-instant overwrite that *raises* the level must raise the
        # peak min_sinr_db reads.
        r = make_reception(rss_dbm=-70.0, dur=1e-3)
        r.interference_changed(0.5e-3, dbm_to_mw(-80.0))
        r.interference_changed(0.5e-3, dbm_to_mw(-72.0))
        expected = linear_to_db(
            dbm_to_mw(-70.0) / (dbm_to_mw(-72.0) + NOISE_MW)
        )
        assert r.min_sinr_db(NOISE_MW) == expected

    def test_peak_rederived_when_coalescing_overwrite_lowers_it(self):
        # Overwriting the entry that *was* the peak with a smaller value
        # must leave the maximum of the surviving history.
        r = make_reception(rss_dbm=-70.0, dur=1e-3, interference_mw=dbm_to_mw(-78.0))
        r.interference_changed(0.5e-3, dbm_to_mw(-71.0))  # new peak
        r.interference_changed(0.5e-3, dbm_to_mw(-90.0))  # overwrites the peak
        expected = linear_to_db(
            dbm_to_mw(-70.0) / (dbm_to_mw(-78.0) + NOISE_MW)
        )
        assert r.min_sinr_db(NOISE_MW) == expected


class TestProbabilisticScoring:
    def test_success_probability_bounded(self):
        em = NistErrorModel()
        for rss in (-95, -90, -85, -80, -60):
            r = make_reception(rss_dbm=rss)
            p = r.success_probability(em, NOISE_MW)
            assert 0.0 <= p <= 1.0

    def test_stronger_signal_higher_probability(self):
        em = NistErrorModel()
        p_weak = make_reception(rss_dbm=-88.0).success_probability(em, NOISE_MW)
        p_strong = make_reception(rss_dbm=-84.0).success_probability(em, NOISE_MW)
        assert p_strong > p_weak


@given(
    rss=st.floats(min_value=-95, max_value=-50),
    interf_dbm=st.floats(min_value=-110, max_value=-50),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_partial_interference_bounded_by_extremes(rss, interf_dbm, frac):
    """P(clean) >= P(partial interference) >= P(full interference)."""
    em = NistErrorModel()
    dur = 1e-3
    clean = make_reception(rss_dbm=rss, dur=dur)
    partial = make_reception(rss_dbm=rss, dur=dur)
    if frac > 0:
        partial.interference_changed(dur * (1 - frac), dbm_to_mw(interf_dbm))
    full = make_reception(rss_dbm=rss, dur=dur, interference_mw=dbm_to_mw(interf_dbm))
    p_clean = clean.success_probability(em, NOISE_MW)
    p_partial = partial.success_probability(em, NOISE_MW)
    p_full = full.success_probability(em, NOISE_MW)
    assert p_clean + 1e-12 >= p_partial >= p_full - 1e-12


def reference_probability(model, reception, noise_mw, changes):
    """The interval model, straight from ``ErrorModel.chunk_success``."""
    points = [(reception.start, changes[0][1])]
    for t, mw in changes[1:]:
        if t == points[-1][0]:
            points[-1] = (t, mw)  # same-instant changes keep the last value
        else:
            points.append((t, mw))
    frame = reception.frame
    duration = reception.end - reception.start
    bits_per_second = 8.0 * frame.size_bytes / duration
    signal_mw = dbm_to_mw(reception.rss_dbm)
    prob = 1.0
    for (t, mw), (t_next, _) in zip(points, points[1:] + [(reception.end, 0.0)]):
        if t_next > t:
            sinr_db = linear_to_db(signal_mw / (mw + noise_mw))
            prob *= model.chunk_success(
                sinr_db, frame.rate, bits_per_second * (t_next - t)
            )
    return prob


# Interference levels that put the SINR of a -70 dBm signal above the
# waterfall (saturated high), inside it, and below it (saturated low).
_LEVELS_DBM = st.one_of(
    st.just(None),  # no interference at all
    st.floats(min_value=-120.0, max_value=-95.0),
    st.floats(min_value=-95.0, max_value=-72.0),
    st.floats(min_value=-72.0, max_value=-40.0),
)


def _level_mw(level_dbm):
    return 0.0 if level_dbm is None else dbm_to_mw(level_dbm)


@pytest.mark.parametrize("kernels", ["python", "scalar"])
@settings(max_examples=150, deadline=None)
@given(
    rate=st.sampled_from([RATE_6M, RATE_54M]),
    size_bytes=st.integers(min_value=14, max_value=1500),
    initial=_LEVELS_DBM,
    steps=st.lists(
        # (slot on an 8-slot frame, level): repeated slots coalesce, slot 0
        # overwrites the initial level, slot 8 is a zero-length tail.
        st.tuples(st.integers(min_value=0, max_value=8), _LEVELS_DBM),
        max_size=10,
    ),
)
def test_property_score_equals_reference_product(
    kernels, rate, size_bytes, initial, steps
):
    """``success_probability`` is, bit for bit, the product of
    ``chunk_success`` over the constant-interference intervals — whatever
    the saturation bounds skip and however change-points coalesce — on the
    grid-backed chunk kernels and on the scalar reference alike."""
    with reference_kernels() if kernels == "scalar" else nullcontext():
        model = NistErrorModel()  # fresh: chunk kernels bind at build
        dur = 1e-3
        frame = Frame(src=0, dst=1, size_bytes=size_bytes, rate=rate)
        tx = Transmission(frame, 0, 0.0, dur)
        changes = [(0.0, _level_mw(initial))]
        r = Reception(tx, -70.0, 0.0, dur, changes[0][1])
        for slot, level in sorted(steps, key=lambda step: step[0]):
            changes.append((dur * slot / 8, _level_mw(level)))
            r.interference_changed(*changes[-1])
        assert r.success_probability(model, NOISE_MW) == reference_probability(
            model, r, NOISE_MW, changes
        )
