"""Fig. 15: hidden terminals (senders out of range, receivers hear both).

Paper: CMAP and 802.11 (CS on or off) perform comparably — CMAP's
loss-rate backoff prevents degradation when the defer mechanism cannot
work — and there is little weight above the single-pair throughput.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_hidden_terminals


def test_fig15_hidden_terminals(benchmark, testbed, scale, backend):
    spec = build_hidden_terminals(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_pair_cdf(result))
    benchmark.extra_info["cmap_median"] = round(result.median("cmap"), 2)
    benchmark.extra_info["cs_on_median"] = round(result.median("cs_on"), 2)
    assert result.median("cmap") > 0.75 * result.median("cs_on")
    assert result.median("cmap") < 8.5  # no weight above single-pair rate
