"""Ablation: send-window size (§3.3, §5.2).

Paper: with a window of one virtual packet, ACK collisions at exposed
senders cause spurious timeouts and retransmissions, cutting the exposed-
terminal gain from ~2x to ~1.5x. We sweep N_window in {1, 2, 4, 8}.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import find_exposed_terminal_configs
from repro.experiments.spec import MacSpec


def _sweep(testbed, scale, backend):
    configs = find_exposed_terminal_configs(testbed, scale.configs)
    protocols = {f"cmap_w{w}": MacSpec.of("cmap", nwindow=w) for w in (1, 2, 4, 8)}
    spec = build_pair_cdf_experiment(
        "ablation_window", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed, backend=backend)


def test_ablation_window_size(benchmark, testbed, scale, backend):
    result = run_once(benchmark, _sweep, testbed, scale, backend)
    print()
    print(render_pair_cdf(result, "Ablation — send window size (exposed pairs)"))
    medians = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in medians.items()}
    # The full window must beat the stop-and-wait-like window of one.
    assert medians["cmap_w8"] > medians["cmap_w1"]
