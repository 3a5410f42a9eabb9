"""Related-work baseline: RTS/CTS virtual carrier sense (MACA [7], §6).

The paper's argument, quantified: RTS/CTS helps hidden terminals (cheap
control-frame collisions instead of long data collisions) but does *not*
solve — indeed worsens — the exposed-terminal problem, because exposed
senders honour each other's reservations. CMAP should beat it soundly on
exposed pairs and match it on hidden pairs.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import (
    find_exposed_terminal_configs,
    find_hidden_terminal_configs,
)
from repro.mac.rtscts import rtscts_factory
from repro.network import cmap_factory, dcf_factory


def _exposed(testbed, scale):
    configs = find_exposed_terminal_configs(testbed, scale.configs)
    protocols = {
        "cs_on": dcf_factory(True, True),
        "rts_cts": rtscts_factory(),
        "cmap": cmap_factory(),
    }
    spec = build_pair_cdf_experiment(
        "rtscts_exposed", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def _hidden(testbed, scale):
    configs = find_hidden_terminal_configs(testbed, scale.configs)
    protocols = {
        "cs_on": dcf_factory(True, True),
        "rts_cts": rtscts_factory(),
        "cmap": cmap_factory(),
    }
    spec = build_pair_cdf_experiment(
        "rtscts_hidden", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_rtscts_exposed_terminals(benchmark, testbed, scale):
    result = run_once(benchmark, _exposed, testbed, scale)
    print()
    print(render_pair_cdf(result, "RTS/CTS vs CMAP — exposed terminals (§6)"))
    benchmark.extra_info["cmap_over_rtscts"] = round(
        result.gain_over("cmap", "rts_cts"), 2
    )
    # RTS/CTS must not exploit exposure: it stays near/below plain CS.
    assert result.median("rts_cts") <= result.median("cs_on") * 1.1
    # CMAP exploits it.
    assert result.gain_over("cmap", "rts_cts") > 1.3


def test_rtscts_hidden_terminals(benchmark, testbed, scale):
    result = run_once(benchmark, _hidden, testbed, scale)
    print()
    print(render_pair_cdf(result, "RTS/CTS vs CMAP — hidden terminals (§6)"))
    med = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in med.items()}
    # All three land near the single-pair rate; CMAP doesn't degrade.
    assert med["cmap"] > 0.7 * max(med.values())
