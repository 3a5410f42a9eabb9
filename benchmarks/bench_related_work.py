"""The §6 related-work line-up, quantified on exposed terminals.

Five channel-access schemes on the same Fig. 11(a) configurations:

* plain CSMA (the status quo);
* RTS/CTS virtual carrier sense (MACA [7]) — fixes hidden, not exposed;
* IA-MAC [3] — SINR margins in CTS; helps only overhearers in CTS range;
* E-CSMA [4] — receiver-feedback CSMA, identity-blind;
* adaptive CS-threshold tuning ([8, 21, 22] family) — one knob for two
  failure modes;
* CMAP.

The paper's §6 argument is that each prior scheme either misses exposed
opportunities or trades them against hidden-terminal losses; CMAP should
lead this table.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import find_exposed_terminal_configs
from repro.mac.cs_tuning import CsTuningParams, cs_tuning_factory
from repro.mac.ecsma import ecsma_factory
from repro.mac.iamac import iamac_factory
from repro.mac.rtscts import rtscts_factory
from repro.network import cmap_factory, dcf_factory


def _lineup(testbed, scale):
    configs = find_exposed_terminal_configs(testbed, scale.configs)
    protocols = {
        "csma": dcf_factory(True, True),
        "rts_cts": rtscts_factory(),
        "ia_mac": iamac_factory(),
        "ecsma": ecsma_factory(),
        "cs_tuning": cs_tuning_factory(CsTuningParams(epoch=0.3)),
        "cmap": cmap_factory(),
    }
    spec = build_pair_cdf_experiment(
        "related_work", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_related_work_lineup(benchmark, testbed, scale):
    result = run_once(benchmark, _lineup, testbed, scale)
    print()
    print(render_pair_cdf(result, "Related work (§6) — exposed terminals"))
    med = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in med.items()}
    # CMAP leads the table; RTS/CTS cannot beat plain CSMA here.
    assert med["cmap"] >= max(med.values()) * 0.95
    assert med["rts_cts"] <= med["csma"] * 1.1
