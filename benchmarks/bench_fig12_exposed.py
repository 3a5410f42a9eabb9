"""Fig. 12: exposed terminals.

Paper: with carrier sense, pairs get ~the single-link rate; CMAP achieves a
2x median gain, transmitting concurrently ~82 % of the time; a window of one
virtual packet drops the gain to ~1.5x.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_exposed_terminals


def test_fig12_exposed_terminals(benchmark, testbed, scale, backend):
    spec = build_exposed_terminals(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_pair_cdf(result))
    gain = result.gain_over("cmap", "cs_on")
    win1_gain = result.gain_over("cmap_win1", "cs_on")
    conc = sum(result.concurrency["cmap"]) / len(result.concurrency["cmap"])
    benchmark.extra_info.update(
        cmap_gain=round(gain, 2),
        cmap_win1_gain=round(win1_gain, 2),
        mean_concurrency=round(conc, 2),
    )
    # Shape assertions (paper: 2x, 1.5x, 82 %).
    assert gain > 1.35
    assert win1_gain < gain
    assert conc > 0.5
