"""Tests for the text report renderers."""

import pytest

from repro.experiments import report
from repro.experiments.runners import (
    ApResult,
    BitrateSweepResult,
    CalibrationResult,
    HeaderTrailerCdfResult,
    HiddenInterfererResult,
    HtDensityResult,
    MeshResult,
    PairCdfResult,
    ScatterPoint,
)
from repro.experiments.scenarios import InterfererTriple, PairConfig


def make_pair_result(**kw):
    defaults = dict(
        figure="figX",
        configs=[PairConfig(0, 1, 2, 3)],
        totals={"cs_on": [5.0, 5.2, 5.1], "cmap": [9.8, 10.1, 9.9]},
        per_flow={"cs_on": [(2.5, 2.5)] * 3, "cmap": [(5.0, 4.9)] * 3},
        concurrency={"cmap": [0.9, 0.85, 0.92]},
    )
    defaults.update(kw)
    return PairCdfResult(**defaults)


class TestPairCdfRendering:
    def test_contains_curves_and_gain(self):
        text = report.render_pair_cdf(make_pair_result(), "title")
        assert "title" in text
        assert "cs_on" in text and "cmap" in text
        assert "1.9" in text  # median gain ~1.94x
        assert "concurrency" in text

    def test_concurrency_one_line_per_curve(self):
        r = make_pair_result(
            concurrency={"cmap": [0.8, 0.9, 1.0], "cmap_win1": [0.1, 0.2, 0.3]}
        )
        lines = report.render_pair_cdf(r).splitlines()
        assert "CMAP concurrency fraction: mean 0.90, median 0.90" in lines
        assert "cmap_win1 concurrency fraction: mean 0.20, median 0.20" in lines

    def test_title_defaults_to_the_figure(self):
        assert report.render_pair_cdf(make_pair_result()).startswith("figX\n")
        fig12 = make_pair_result(figure="fig12")
        assert report.render_pair_cdf(fig12).startswith("Fig. 12 — exposed")

    def test_median_and_gain_helpers(self):
        r = make_pair_result()
        assert r.median("cs_on") == 5.1
        assert r.gain_over("cmap", "cs_on") == pytest.approx(9.9 / 5.1)


class TestOtherRenderers:
    def test_calibration(self):
        text = report.render_calibration(CalibrationResult(5.04, 5.07, (0, 1)))
        assert "5.04" in text and "5.07" in text

    def test_hidden_interferer(self):
        t = InterfererTriple(0, 1, 2, 3)
        p = ScatterPoint(t, 0.3, 5.0, 2.0)
        p.set_hear_probability(0.3, 0.2)
        r = HiddenInterfererResult([p], 0.08, 0.896)
        text = report.render_hidden_interferer(r)
        assert "0.080" in text and "0.896" in text

    def test_ap(self):
        r = ApResult(
            aggregate={3: {"cs_on": [10.0], "cmap": [13.0]}},
            per_sender={"cs_on": [2.5, 3.0], "cmap": [4.5, 4.7]},
            ht_rates={3: [0.9]},
        )
        text = report.render_ap(r)
        assert "1.30x" in text

    def test_ht_cdf_skips_empty_curves(self):
        r = HeaderTrailerCdfResult([0.9, 0.95], [0.99, 1.0], [], [])
        text = report.render_ht_cdf(r)
        assert "in-range" in text
        assert "out-of-range" not in text

    def test_ht_density(self):
        r = HtDensityResult({2: [0.9, 1.0], 3: [0.8, 0.85], 4: []})
        text = report.render_ht_density(r)
        assert "  2 " in text and "  3 " in text

    def test_mesh(self):
        r = MeshResult({"cs_on": [5.0, 6.0], "cmap": [8.0, 8.5]})
        text = report.render_mesh(r)
        assert "1.50x" in text

    def test_bitrate_sweep(self):
        r = BitrateSweepResult({6: make_pair_result(figure="fig20@6")})
        text = report.render_bitrate_sweep(r)
        assert "6 Mb/s" in text


class TestRenderDispatch:
    def test_picks_the_renderer_by_type(self):
        pair = make_pair_result(figure="fig15")
        assert report.render(pair) == report.render_pair_cdf(pair)
        cal = CalibrationResult(5.04, 5.07, (0, 1))
        assert report.render(cal) == report.render_calibration(cal)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            report.render(object())


class TestScatterPoint:
    def test_normalized_capped_at_one(self):
        t = InterfererTriple(0, 1, 2, 3)
        p = ScatterPoint(t, 0.5, 2.0, 3.0)
        assert p.normalized_throughput == 1.0

    def test_zero_isolated_gives_zero(self):
        t = InterfererTriple(0, 1, 2, 3)
        p = ScatterPoint(t, 0.5, 0.0, 1.0)
        assert p.normalized_throughput == 0.0

    def test_hear_probability_formula(self):
        t = InterfererTriple(0, 1, 2, 3)
        p = ScatterPoint(t, 0.5, 5.0, 2.0)
        p.set_hear_probability(0.9, 0.8)
        assert p.hear_probability == pytest.approx(0.7)
        p.set_hear_probability(0.3, 0.2)
        assert p.hear_probability == 0.0


class TestMeshResult:
    def test_mean_and_gain(self):
        r = MeshResult({"cs_on": [4.0, 6.0], "cmap": [10.0]})
        assert r.mean("cs_on") == 5.0
        assert r.gain("cmap", "cs_on") == 2.0

    def test_empty_protocol_mean_zero(self):
        assert MeshResult({"x": []}).mean("x") == 0.0
