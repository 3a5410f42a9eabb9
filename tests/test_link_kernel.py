"""The link census through the exact chunk kernel, against its oracle.

The oracles below are the per-point quadrature loops and the ``itertools``
scans the link table and the Fig. 11 searches used before they ran on
:class:`repro.phy.modulation.FadeQuadrature` and the per-node predicate
index. Every PRR, RSS and candidate list must be *equal* to the oracle's —
not approximately: the kernel path skips only terms that are exactly 0.0,
and adds exactly the weight where a term is exactly 1.0.
"""

from __future__ import annotations

import itertools
import math
import pickle
from unittest import mock

import numpy as np
import pytest

from repro.experiments import scenarios
from repro.experiments.scenarios import PairConfig, ScenarioError, prr_at_rate
from repro.kernels.backend import reference_kernels
from repro.net.links import LinkTable
from repro.net.testbed import Testbed
from repro.phy.fading import GaussianBlockFading, LosNlosMixtureFading, NoFading
from repro.phy.modulation import (
    RATES,
    NistErrorModel,
    SinrThresholdErrorModel,
    isolated_prr,
)
from repro.util.units import sinr_db

SEEDS = (1, 2, 3)


# ----------------------------------------------------------------------
# Oracles: the per-point loops
# ----------------------------------------------------------------------
def _gaussian_grid(points=81, span_sigmas=4.5):
    xs = np.linspace(-span_sigmas, span_sigmas, points)
    pdf = np.exp(-0.5 * xs**2)
    return xs, pdf / pdf.sum()


def _weighted_loop(s, sigma, nodes, weights, rate, size, em):
    total = 0.0
    for x, w in zip(nodes, weights):
        total += w * em.frame_success(s + sigma * float(x), rate, size)
    return float(total)


def oracle_mean_prr(fading, rss_dbm, noise_dbm, rate, size, em, a, b):
    s = sinr_db(rss_dbm, -400.0, noise_dbm)
    if isinstance(fading, NoFading):
        return em.frame_success(s, rate, size)
    nodes, weights = _gaussian_grid()
    if isinstance(fading, GaussianBlockFading):
        return _weighted_loop(s, fading.sigma_db, nodes, weights, rate, size, em)
    assert isinstance(fading, LosNlosMixtureFading)
    if fading.is_los(a, b):
        return _weighted_loop(
            s, fading.los_sigma_db, nodes, weights, rate, size, em
        )
    qs = (np.arange(200) + 0.5) / 200.0
    total = 0.0
    for g in -np.log1p(-qs):
        fade = max(-50.0, 10.0 * math.log10(float(g)))
        total += em.frame_success(s + fade, rate, size)
    return float(min(1.0, total / 200))


def oracle_isolated_prr(rss_dbm, noise_dbm, rate, size, em, sigma=0.0):
    s = sinr_db(rss_dbm, -400.0, noise_dbm)
    if sigma <= 0.0:
        return em.frame_success(s, rate, size)
    nodes, weights = np.polynomial.hermite_e.hermegauss(17)
    return _weighted_loop(
        s, sigma, nodes, weights / weights.sum(), rate, size, em
    )


def assert_table_matches(table, testbed, em, fading):
    noise, rate, size = testbed.config.noise_dbm, table.rate, 1428
    assert len(list(table.all_links())) == len(table.node_ids) * (
        len(table.node_ids) - 1
    )
    for ls in table.all_links():
        rss = testbed.rss.rss(ls.src, ls.dst)
        if fading is None:
            want = oracle_isolated_prr(rss, noise, rate, size, em)
        else:
            want = oracle_mean_prr(
                fading, rss, noise, rate, size, em, ls.src, ls.dst
            )
        assert ls.rss_dbm == rss
        assert ls.prr == want, (ls.src, ls.dst)


def build_table(testbed, em, fading):
    return LinkTable(
        testbed.node_ids,
        testbed.rss,
        testbed.config.noise_dbm,
        em,
        fading=fading,
    )


# ----------------------------------------------------------------------
# PRRs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", ["los_nlos", "gaussian4", "none"])
def test_link_table_equals_quadrature_loops(seed, model):
    testbed = Testbed(seed)
    fading = {
        "los_nlos": testbed.fading,
        "gaussian4": GaussianBlockFading(4.0),
        "none": NoFading(),
    }[model]
    table = testbed.links if model == "los_nlos" else build_table(
        testbed, testbed.error_model, fading
    )
    assert_table_matches(table, testbed, testbed.error_model, fading)


def test_reference_kernels_equal_the_loops():
    """Inside reference_kernels() the kernel is region-free: the plain
    loop, which must agree with the grid path and the oracle alike."""
    with reference_kernels():
        testbed = Testbed(2)
        table = testbed.links
    assert_table_matches(table, testbed, testbed.error_model, testbed.fading)
    assert [ls.prr for ls in table.all_links()] == [
        ls.prr for ls in Testbed(2).links.all_links()
    ]


def test_threshold_error_model_equals_the_loops():
    testbed = Testbed(1)
    em = SinrThresholdErrorModel()
    table = build_table(testbed, em, testbed.fading)
    assert_table_matches(table, testbed, em, testbed.fading)


def test_static_table_equals_isolated_prr_loop():
    testbed = Testbed(1)
    em = NistErrorModel()
    assert_table_matches(build_table(testbed, em, None), testbed, em, None)


def test_testbed_pickles_after_the_link_census():
    """The census caches chunk kernels (closures) on the error model; a
    pool worker started by spawn still receives the testbed."""
    testbed = Testbed(1)
    prrs = [ls.prr for ls in testbed.links.all_links()]
    clone = pickle.loads(pickle.dumps(testbed))
    assert [ls.prr for ls in clone.links.all_links()] == prrs
    table = build_table(clone, clone.error_model, clone.fading)
    assert [ls.prr for ls in table.all_links()] == prrs


@pytest.mark.parametrize("sigma", [0.0, 3.0])
def test_isolated_prr_gauss_hermite_equals_the_loop(sigma):
    testbed = Testbed(3)
    em = testbed.error_model
    for a, b in itertools.permutations(testbed.node_ids[:20], 2):
        rss = testbed.rss.rss(a, b)
        assert isolated_prr(rss, -93.0, RATES[12], 1428, em, sigma) == (
            oracle_isolated_prr(rss, -93.0, RATES[12], 1428, em, sigma)
        )


@pytest.mark.parametrize("mbps", [12, 24, 54])
def test_prr_at_rate_equals_the_loop(mbps):
    testbed = Testbed(1)
    for a, b in itertools.permutations(testbed.node_ids, 2):
        assert prr_at_rate(testbed, a, b, mbps) == oracle_mean_prr(
            testbed.fading,
            testbed.rss.rss(a, b),
            testbed.config.noise_dbm,
            RATES[mbps],
            1428,
            testbed.error_model,
            a,
            b,
        )


# ----------------------------------------------------------------------
# Oracles: the itertools scans
# ----------------------------------------------------------------------
class Predicates:
    """The table's predicates, each evaluated once per pair (they are pure)."""

    def __init__(self, links):
        self.ids = links.node_ids
        pairs = list(itertools.permutations(self.ids, 2))
        self.tx = {p: links.potential_tx_link(*p) for p in pairs}
        self.in_range = {p: links.in_range(*p) for p in pairs}
        self.out_of_range = {p: links.out_of_range(*p) for p in pairs}
        self.strong = {p: links.strong_signal(*p) for p in pairs}
        self.weak = {p: links.weak_signal(*p) for p in pairs}

    def tx_links(self):
        return [p for p in itertools.permutations(self.ids, 2) if self.tx[p]]


def oracle_exposed(pr):
    strong_links = [p for p in pr.tx_links() if pr.strong[p]]
    out = []
    for (s1, r1), (s2, r2) in itertools.permutations(strong_links, 2):
        if len({s1, r1, s2, r2}) != 4 or not pr.in_range[s1, s2]:
            continue
        cross = [(s1, r2), (s2, r1), (r1, r2), (r2, r1), (r1, s2), (r2, s1),
                 (s1, s2), (s2, s1)]
        if all(pr.weak[p] for p in cross):
            out.append(PairConfig(s1, r1, s2, r2))
    return out


def oracle_inrange(pr):
    out = []
    for (s1, r1), (s2, r2) in itertools.permutations(pr.tx_links(), 2):
        if len({s1, r1, s2, r2}) == 4 and pr.in_range[s1, s2]:
            out.append(PairConfig(s1, r1, s2, r2))
    return out


def oracle_hidden(pr):
    out = []
    tx = pr.tx
    for s1, s2 in itertools.combinations(pr.ids, 2):
        if not pr.out_of_range[s1, s2]:
            continue
        for r1, r2 in itertools.permutations(pr.ids, 2):
            if len({s1, s2, r1, r2}) != 4:
                continue
            if tx[s1, r1] and tx[s2, r1] and tx[s1, r2] and tx[s2, r2]:
                out.append(PairConfig(s1, r1, s2, r2))
    return out


def candidates(finder, testbed, **kwargs):
    """The list ``finder`` hands to ``_sample``, before sampling."""
    seen = []
    sample = scenarios._sample

    def spy(items, count, rng):
        seen.append([PairConfig(*c) for c in items])
        return sample(items, count, rng)

    with mock.patch.object(scenarios, "_sample", spy):
        try:
            finder(testbed, 3, **kwargs)
        except ScenarioError:
            pass
    assert len(seen) == 1
    return seen[0]


SEARCHES = {
    "exposed": (scenarios.find_exposed_terminal_configs, oracle_exposed),
    "inrange": (scenarios.find_inrange_configs, oracle_inrange),
    "hidden": (scenarios.find_hidden_terminal_configs, oracle_hidden),
    "mobility": (scenarios.find_mobility_configs, oracle_inrange),
}


@pytest.fixture(scope="module")
def worlds():
    return {seed: Testbed(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def oracle_lists(worlds):
    """(seed, search) -> the oracle's full candidate list."""
    out = {}
    for seed, testbed in worlds.items():
        pr = Predicates(testbed.links)
        for name, (_finder, oracle) in SEARCHES.items():
            out[seed, name] = oracle(pr)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_candidates_equal_the_scan(worlds, oracle_lists, seed, name):
    finder, _oracle = SEARCHES[name]
    want = oracle_lists[seed, name]
    assert candidates(finder, worlds[seed]) == want
    if name != "exposed":
        assert len(want) > 100
    # A candidate cap keeps the scan's prefix.
    assert candidates(finder, worlds[seed], max_candidates=37) == want[:37]
