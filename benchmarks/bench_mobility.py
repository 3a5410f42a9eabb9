"""Dynamic world: mobility and churn sweeps (paper §3.4 adaptation).

The map must keep up with a changing geometry: a walking sender flips
conflict relations on the timescale of its walk, and a churning sender
dissolves and re-forms them wholesale. The static (0 m/s / no-churn) column
doubles as a regression anchor: it runs the exact static fast path.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_churn, render_mobility
from repro.experiments.runners import build_churn_sweep, build_mobility_sweep


def test_mobility_sweep(benchmark, testbed, scale, backend):
    spec = build_mobility_sweep(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_mobility(result))
    static_cmap = result.median(result.speeds[0], "cmap")
    benchmark.extra_info.update(
        static_cmap_median=round(static_cmap, 2),
        fastest_cmap_median=round(result.median(result.speeds[-1], "cmap"), 2),
    )
    # Every speed must produce live traffic under both protocols.
    for speed in result.speeds:
        assert result.median(speed, "cmap") > 0.0
        assert result.median(speed, "cs_on") > 0.0


def test_churn_sweep(benchmark, testbed, scale, backend):
    spec = build_churn_sweep(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_churn(result))
    no_churn = result.median(result.periods[0], "cmap")
    benchmark.extra_info.update(no_churn_cmap_median=round(no_churn, 2))
    for period in result.periods:
        assert result.median(period, "cmap") > 0.0
        assert result.median(period, "cs_on") > 0.0
