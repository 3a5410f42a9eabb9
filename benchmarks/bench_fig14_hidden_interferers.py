"""Fig. 14 / §5.4: how bad are hidden interferers?

Paper: over 500 random (S, R, I) triples, only ~8 % of points fall in the
bottom-left quadrant (interferer halves throughput yet is inaudible), and
the computed expected CMAP throughput under hidden interferers is 0.896 —
i.e. ~10 % expected damage.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_hidden_interferer
from repro.experiments.runners import build_hidden_interferer_scatter


def test_fig14_hidden_interferers(benchmark, testbed, scale, backend):
    spec = build_hidden_interferer_scatter(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_hidden_interferer(result))
    benchmark.extra_info.update(
        bottom_left=round(result.bottom_left_fraction, 3),
        expected_cmap=round(result.expected_cmap_throughput, 3),
    )
    # Hidden interferers are rare and their expected damage modest.
    assert result.bottom_left_fraction < 0.30
    assert result.expected_cmap_throughput > 0.70
