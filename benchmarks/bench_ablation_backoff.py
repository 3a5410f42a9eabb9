"""Ablation: the loss-rate backoff (§3.4, §5.5).

With the defer mechanism blinded (hidden terminals), the backoff is what
keeps CMAP from degrading below the status quo. Disabling it (threshold 1.0
means no loss report can ever trigger a backoff) should hurt hidden-terminal
topologies while leaving exposed ones roughly alone.
"""

from conftest import run_once

from repro.core.params import CmapParams
from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import find_hidden_terminal_configs
from repro.network import cmap_factory


def _sweep(testbed, scale):
    configs = find_hidden_terminal_configs(testbed, scale.configs)
    protocols = {
        "cmap": cmap_factory(CmapParams()),
        "cmap_no_backoff": cmap_factory(CmapParams(l_backoff=1.0)),
    }
    spec = build_pair_cdf_experiment(
        "ablation_backoff", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_ablation_backoff_hidden_terminals(benchmark, testbed, scale):
    result = run_once(benchmark, _sweep, testbed, scale)
    print()
    print(render_pair_cdf(result, "Ablation — loss backoff (hidden terminals)"))
    med_on = result.median("cmap")
    med_off = result.median("cmap_no_backoff")
    benchmark.extra_info["with_backoff"] = round(med_on, 2)
    benchmark.extra_info["without_backoff"] = round(med_off, 2)
    # Backoff must not *hurt*; under capture-heavy channels the totals can
    # be close, so require parity rather than a strict win.
    assert med_on > 0.8 * med_off
