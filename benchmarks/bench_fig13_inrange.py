"""Fig. 13: two senders in range of each other, cross links unconstrained.

Paper: ~15 % of pairs conflict (blast mode hurts them, CMAP defers and
tracks CS-on); ~18 % are better off concurrent (CMAP tracks CS-off); CS-off
with ACKs underperforms CMAP on concurrent pairs because stop-and-wait is
fragile to ACK loss.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_inrange_senders


def test_fig13_inrange_senders(benchmark, testbed, scale, backend):
    spec = build_inrange_senders(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_pair_cdf(result))
    benchmark.extra_info["cmap_median"] = round(result.median("cmap"), 2)
    benchmark.extra_info["cs_on_median"] = round(result.median("cs_on"), 2)
    # CMAP must not fall below the status quo in aggregate...
    assert result.median("cmap") > 0.85 * result.median("cs_on")
    # ... and its worst configuration must not collapse the way blast can.
    assert min(result.totals["cmap"]) > 0.5 * min(result.totals["cs_on"])
