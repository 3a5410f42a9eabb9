"""Rate adaptation around the conflict map (§3.5's sketch, quantified).

Line-up, on in-range sender pairs (the population with real conflicts) with
data at 18 Mb/s:

* plain DCF fixed at 18 Mb/s;
* ARF (the standard adaptation baseline — known to misread collision losses
  as channel losses and throttle);
* CMAP fixed at 18 Mb/s;
* CMAP with the rate-aware map + defer-or-downshift policy.

The paper predicts a conflict-map-driven chooser "would amplify CMAP's
gains"; here we check the policy engages (downshifts happen) and never
collapses relative to fixed-rate CMAP.
"""

from conftest import run_once

from repro.core.params import CmapParams
from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import (
    filter_configs_by_rate,
    find_inrange_configs,
)
from repro.mac.autorate import ArfParams, arf_factory
from repro.mac.dcf import DcfParams
from repro.network import cmap_factory, dcf_factory
from repro.phy.modulation import RATES, RATE_6M


def _sweep(testbed, scale):
    # Oversample, then keep configs whose data links still decode at 18.
    candidates = find_inrange_configs(testbed, scale.configs * 6)
    configs = filter_configs_by_rate(testbed, candidates, 18)[: scale.configs]
    rate18 = RATES[18]
    protocols = {
        "dcf@18": dcf_factory(
            params=DcfParams(carrier_sense=True, acks=True, data_rate=rate18)
        ),
        "arf": arf_factory(ArfParams(carrier_sense=True, acks=True)),
        "cmap@18": cmap_factory(CmapParams(data_rate=rate18, control_rate=RATE_6M)),
        "cmap@18+adapt": cmap_factory(
            CmapParams(
                data_rate=rate18,
                control_rate=RATE_6M,
                rate_aware_map=True,
                adapt_rate_on_defer=True,
            )
        ),
    }
    spec = build_pair_cdf_experiment(
        "rate_adaptation", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_rate_adaptation(benchmark, testbed, scale):
    result = run_once(benchmark, _sweep, testbed, scale)
    print()
    print(render_pair_cdf(result, "Rate adaptation — in-range pairs @ 18 Mb/s"))
    med = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in med.items()}
    # The adaptive map policy must not lose to fixed-rate CMAP...
    assert med["cmap@18+adapt"] > 0.8 * med["cmap@18"]
    # ... and CMAP variants must beat ARF, which throttles on collisions.
    assert max(med["cmap@18"], med["cmap@18+adapt"]) > med["arf"]
