"""Unit tests for the analysis statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import Cdf, percentile, summarize


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSummarize:
    def test_basic_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.count == 5
        assert s.mean == pytest.approx(3.0)
        assert s.median == pytest.approx(3.0)
        assert s.p10 <= s.p25 <= s.median <= s.p75 <= s.p90

    def test_single_value_has_zero_std(self):
        s = summarize([2.5])
        assert s.std == 0.0 and s.mean == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCdf:
    def test_at(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_quantile_bounds(self):
        cdf = Cdf([1.0, 2.0, 3.0])
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 3.0
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_median(self):
        assert Cdf([5, 1, 3]).median == 3

    def test_quantile_is_the_median_estimator(self):
        # Three samples: p50 is the middle one, not the lower-index minimum.
        cdf = Cdf([1, 2, 3])
        assert cdf.quantile(0.5) == 2.0 == cdf.median
        assert cdf.quantile(0.25) == 1.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_points_monotone(self):
        pts = Cdf([3, 1, 2]).points()
        values = [v for v, _ in pts]
        fracs = [f for _, f in pts]
        assert values == sorted(values)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_series_has_requested_length(self):
        assert len(Cdf(range(100)).series(num=5)) == 5


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
def test_property_cdf_at_is_monotone(values):
    cdf = Cdf(values)
    lo, hi = min(values), max(values)
    mid = (lo + hi) / 2
    assert cdf.at(lo - 1) == 0.0
    assert cdf.at(hi) == 1.0
    assert cdf.at(lo) <= cdf.at(mid) <= cdf.at(hi)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2))
def test_property_quantiles_monotone(values):
    cdf = Cdf(values)
    qs = [0.0, 0.25, 0.5, 0.75, 1.0]
    out = [cdf.quantile(q) for q in qs]
    assert out == sorted(out)
