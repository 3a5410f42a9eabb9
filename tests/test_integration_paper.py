"""Integration tests asserting the paper's headline *shapes* at small scale.

These are the load-bearing claims of the evaluation (§5), checked with loose
bands so they are robust to the reduced sample sizes used in CI. The full
benchmark harness (``benchmarks/``) regenerates each figure at larger scale.
"""

import pytest

from repro.experiments.executor import run_experiment
from repro.experiments.runners import (
    ExperimentScale,
    build_exposed_terminals,
    build_hidden_terminals,
    build_inrange_senders,
)
from repro.net.testbed import Testbed
from repro.network import Network, cmap_factory


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


SCALE = ExperimentScale(configs=6, duration=10.0, warmup=4.0)


@pytest.fixture(scope="module")
def exposed(testbed):
    spec = build_exposed_terminals(testbed, SCALE, include_win1=True)
    return run_experiment(spec, testbed)


class TestExposedTerminalHeadline:
    """§5.2: CMAP ~2x over CSMA with exposed terminals."""

    def test_cmap_beats_csma_substantially(self, exposed):
        gain = exposed.gain_over("cmap", "cs_on")
        assert gain > 1.4, f"median CMAP gain only {gain:.2f}x"

    def test_cmap_tracks_blast_mode(self, exposed):
        # CMAP should reach most of the raw concurrent capacity.
        cmap = exposed.median("cmap")
        blast = exposed.median("cs_off_noacks")
        assert cmap > 0.8 * blast

    def test_csma_stuck_near_single_link_rate(self, exposed):
        assert exposed.median("cs_on") < 7.0

    def test_concurrency_majority_of_airtime(self, exposed):
        """§5.2: CMAP transmits concurrently ~82 % of the time."""
        cmap = exposed.concurrency["cmap"]  # window-1 is its own curve
        mean_conc = sum(cmap) / len(cmap)
        assert mean_conc > 0.5

    def test_windowed_arq_beats_window_of_one(self, exposed):
        """§5.2: window = 1 loses a chunk of the gain (1.5x vs 2x)."""
        assert exposed.median("cmap") > exposed.median("cmap_win1")


class TestInrangeSendersHeadline:
    """§5.3: CMAP discriminates conflicting from non-conflicting pairs."""

    @pytest.fixture(scope="class")
    def result(self, testbed):
        return run_experiment(build_inrange_senders(testbed, SCALE), testbed)

    def test_cmap_at_least_csma(self, result):
        # CMAP should track the better of CS-on / blast per configuration;
        # in aggregate its median must not fall below ~CSMA's.
        assert result.median("cmap") > 0.85 * result.median("cs_on")

    def test_blast_hurts_some_pairs(self, result):
        # Without ACKs or CS, the worst pairs collapse (the left tail of
        # Fig. 13); CMAP's worst case must be far better.
        worst_blast = min(result.totals["cs_off_noacks"])
        worst_cmap = min(result.totals["cmap"])
        assert worst_cmap > worst_blast or worst_blast > 4.0


class TestHiddenTerminalHeadline:
    """§5.5: CMAP does not degrade below the status quo."""

    @pytest.fixture(scope="class")
    def result(self, testbed):
        return run_experiment(build_hidden_terminals(testbed, SCALE), testbed)

    def test_no_degradation_vs_status_quo(self, result):
        assert result.median("cmap") > 0.8 * result.median("cs_on")

    def test_total_near_single_pair_rate(self, result):
        # Fig. 15: little weight above the single-pair throughput.
        assert result.median("cmap") < 8.0


class TestConflictAvoidanceMicro:
    """A symmetric conflicting pair: CMAP must serialize, not blast."""

    def test_serializes_conflicting_transmissions(self, testbed):
        import itertools

        links = testbed.links
        found = None
        for s1, r1 in itertools.permutations(testbed.node_ids, 2):
            if not links.potential_tx_link(s1, r1):
                continue
            for s2, r2 in itertools.permutations(testbed.node_ids, 2):
                if len({s1, r1, s2, r2}) != 4:
                    continue
                if not links.potential_tx_link(s2, r2):
                    continue
                if not links.in_range(s1, s2):
                    continue
                d1 = links.rss(s1, r1) - links.rss(s2, r1)
                d2 = links.rss(s2, r2) - links.rss(s1, r2)
                if -4 < d1 < 4 and -4 < d2 < 4:
                    found = (s1, r1, s2, r2)
                    break
            if found:
                break
        assert found, "testbed has no symmetric conflicting pair"
        s1, r1, s2, r2 = found

        net = Network(testbed, run_seed=5, track_tx=True)
        for n in found:
            net.add_node(n, cmap_factory())
        net.add_saturated_flow(s1, r1)
        net.add_saturated_flow(s2, r2)
        res = net.run(duration=14.0, warmup=7.0)
        total = res.flow_mbps(s1, r1) + res.flow_mbps(s2, r2)
        # Serialized sharing: near the single-link rate, and low concurrency.
        assert 3.5 < total < 7.5
        assert res.concurrency_fraction((s1, s2)) < 0.35
