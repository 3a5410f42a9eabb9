"""Ablation: the paper-described optional extensions (§3.1, §5.6).

* ``replicate_ht_in_data`` — copy header/trailer info into every data frame
  (the §5.6 robustness fix for receivers that miss delimiters under load);
* ``piggyback_ilist`` — carry interferer lists on ACKs in addition to the
  periodic broadcast (§3.1 suggests piggy-backing on control messages);
* ``two_hop_ilist`` — relay interferer lists one extra hop for asymmetric
  links.

Run on in-range pairs where the conflict map actually matters.
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
        "baseline": cmap_factory(CmapParams()),
        "replicate_ht": cmap_factory(CmapParams(replicate_ht_in_data=True)),
        "piggyback": cmap_factory(CmapParams(piggyback_ilist=True)),
        "two_hop": cmap_factory(CmapParams(two_hop_ilist=True)),
    }
    spec = build_pair_cdf_experiment(
        "ablation_extensions", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_ablation_extensions(benchmark, testbed, scale):
    result = run_once(benchmark, _sweep, testbed, scale)
    print()
    print(render_pair_cdf(result, "Ablation — optional extensions (in-range pairs)"))
    med = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in med.items()}
    # Extensions are robustness features: none may tank median throughput.
    for name, value in med.items():
        assert value > 0.7 * med["baseline"], f"{name} collapsed: {value:.2f}"
