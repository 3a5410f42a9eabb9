"""Ablation: the interference loss threshold l_interf (§3.1).

The paper argues l_interf must be 0.5: below it, mildly-interfering pairs
get serialized although concurrency nets more throughput; far above it,
real conflicts are never entered into the map. We sweep {0.1, 0.5, 0.9} on
in-range sender pairs (the population containing both conflicting and
exposed configurations).
"""

from conftest import run_once

from repro.core.params import CmapParams
from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import find_inrange_configs
from repro.network import cmap_factory


def _sweep(testbed, scale):
    configs = find_inrange_configs(testbed, scale.configs)
    protocols = {
        f"cmap_li{int(t * 100):02d}": cmap_factory(CmapParams(l_interf=t))
        for t in (0.1, 0.5, 0.9)
    }
    spec = build_pair_cdf_experiment(
        "ablation_linterf", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_ablation_l_interf(benchmark, testbed, scale):
    result = run_once(benchmark, _sweep, testbed, scale)
    print()
    print(render_pair_cdf(result, "Ablation — l_interf threshold (in-range pairs)"))
    med = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in med.items()}
    # The paper's 0.5 should be within a whisker of the best choice.
    best = max(med.values())
    assert med["cmap_li50"] > 0.8 * best
