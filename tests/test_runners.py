"""Smoke tests for every experiment builder, run through the executor
(tiny scale, seconds each)."""

import pytest

from repro.experiments import report
from repro.experiments.executor import run_experiment
from repro.experiments.runners import (
    ExperimentScale,
    build_ap_topology,
    build_bitrate_sweep,
    build_exposed_terminals,
    build_header_trailer_cdf,
    build_header_trailer_density,
    build_hidden_interferer_scatter,
    build_hidden_terminals,
    build_inrange_senders,
    build_mesh_dissemination,
    build_single_link_calibration,
)
from repro.net.testbed import Testbed


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


TINY = ExperimentScale(
    configs=2,
    duration=4.0,
    warmup=1.5,
    triples=4,
    trials_per_n=1,
    mesh_topologies=1,
    ht_configs_per_n=1,
)


def run(build, testbed, *args, **kwargs):
    return run_experiment(build(testbed, *args, **kwargs), testbed)


class TestCalibration:
    def test_both_macs_near_5mbps(self, testbed):
        r = run(build_single_link_calibration, testbed, TINY)
        assert 4.0 < r.cmap_mbps < 6.2
        assert 4.0 < r.dcf_mbps < 6.2
        assert report.render_calibration(r)


class TestExposed:
    def test_runs_and_reports(self, testbed):
        r = run(build_exposed_terminals, testbed, TINY)
        assert set(r.totals) == {"cs_on", "cs_off_noacks", "cmap", "cmap_win1"}
        assert all(len(v) == 2 for v in r.totals.values())
        # Two curves measured concurrency, one value per configuration each.
        assert {k: len(v) for k, v in r.concurrency.items()} == {
            "cmap": 2, "cmap_win1": 2,
        }
        assert report.render(r).startswith("Fig. 12")

    def test_gain_helper(self, testbed):
        r = run(build_exposed_terminals, testbed, TINY, include_win1=False)
        assert r.gain_over("cmap", "cs_on") > 0


class TestInrange:
    def test_curve_set(self, testbed):
        r = run(build_inrange_senders, testbed, TINY)
        assert set(r.totals) == {"cs_on", "cs_off_acks", "cs_off_noacks", "cmap"}


class TestHidden:
    def test_curve_set(self, testbed):
        r = run(build_hidden_terminals, testbed, TINY)
        assert set(r.totals) == {"cs_on", "cs_off_acks", "cmap"}


class TestHiddenInterferer:
    def test_statistics_bounded(self, testbed):
        r = run(build_hidden_interferer_scatter, testbed, TINY)
        assert len(r.points) == 4
        assert 0.0 <= r.bottom_left_fraction <= 1.0
        assert 0.0 <= r.expected_cmap_throughput <= 1.0
        for p in r.points:
            assert 0.0 <= p.min_prr <= 1.0
            assert p.normalized_throughput <= 1.0
        assert report.render_hidden_interferer(r)


class TestAp:
    def test_aggregate_and_persender(self, testbed):
        r = run(build_ap_topology, testbed, TINY, n_values=(3,))
        assert 3 in r.aggregate
        assert all(len(v) == 1 for v in r.aggregate[3].values())
        assert len(r.per_sender["cmap"]) == 3
        assert report.render_ap(r)


class TestHeaderTrailer:
    def test_fig16_cdfs(self, testbed):
        r = run(build_header_trailer_cdf, testbed, TINY)
        for rates in (r.inrange_header, r.inrange_either):
            assert all(0.0 <= x <= 1.0 for x in rates)
        # Either >= header must hold pairwise.
        for h, e in zip(r.inrange_header, r.inrange_either):
            assert e >= h - 1e-9
        assert report.render_ht_cdf(r)

    def test_fig19_density(self, testbed):
        r = run(build_header_trailer_density, testbed, TINY, n_values=(2, 3))
        assert set(r.rates_by_n) == {2, 3}
        assert report.render_ht_density(r)


class TestMesh:
    def test_aggregate_positive(self, testbed):
        r = run(build_mesh_dissemination, testbed, TINY)
        assert set(r.aggregate) == {"cs_on", "cmap", "cmap_ext"}
        assert r.mean("cmap") > 0
        assert report.render_mesh(r)


class TestBitrates:
    def test_rates_present(self, testbed):
        r = run(build_bitrate_sweep, testbed, TINY, rates=(6, 12))
        assert set(r.by_rate) == {6, 12}
        for sub in r.by_rate.values():
            assert set(sub.totals) == {"cs_on", "cmap"}
        assert report.render_bitrate_sweep(r)


class TestScalePresets:
    def test_presets_exist(self):
        assert ExperimentScale.paper().configs == 50
        assert ExperimentScale.quick().configs == 10
        assert ExperimentScale.smoke().configs == 3
