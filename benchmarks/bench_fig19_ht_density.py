"""Fig. 19: header-or-trailer reception rate vs number of concurrent senders.

Paper: the *median* reception probability is practically flat in the number
of concurrent senders, while the 10th percentile drops sharply — a small
fraction of receivers cannot maintain the conflict map under load.
"""

from conftest import run_once

from repro.analysis.stats import summarize
from repro.experiments.executor import run_experiment
from repro.experiments.report import render_ht_density
from repro.experiments.runners import build_header_trailer_density


def test_fig19_ht_density(benchmark, testbed, scale, backend):
    spec = build_header_trailer_density(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_ht_density(result))
    medians = {n: summarize(v).median for n, v in result.rates_by_n.items() if v}
    benchmark.extra_info["medians_by_n"] = {n: round(m, 2) for n, m in medians.items()}
    assert medians, "no data collected"
    # Median stays serviceable even at the highest sender counts measured.
    n_max = max(medians)
    assert medians[n_max] > 0.5
