"""Ablation: software-MAC latency profile (§4.1).

The prototype's 0.5-5 ms MAC<->PHY latency is why N_vpkt = 32 and
t_ackwait = 5 ms exist. A hardware CMAP (ACK after SIFS) can use small
virtual packets without losing throughput; the software profile cannot.
"""

from conftest import run_once

from repro.core.params import CmapParams, LatencyProfile
from repro.experiments.executor import run_experiment
from repro.experiments.report import render_pair_cdf
from repro.experiments.runners import build_pair_cdf_experiment
from repro.experiments.scenarios import find_exposed_terminal_configs
from repro.network import cmap_factory


def _sweep(testbed, scale):
    configs = find_exposed_terminal_configs(testbed, scale.configs)
    protocols = {
        "soft_nvpkt32": cmap_factory(
            CmapParams(latency=LatencyProfile.paper_soft_mac())
        ),
        "soft_nvpkt4": cmap_factory(
            CmapParams(nvpkt=4, latency=LatencyProfile.paper_soft_mac())
        ),
        "hw_nvpkt32": cmap_factory(
            CmapParams(latency=LatencyProfile.hardware(), t_ackwait=1e-3)
        ),
        "hw_nvpkt4": cmap_factory(
            CmapParams(nvpkt=4, latency=LatencyProfile.hardware(), t_ackwait=1e-3)
        ),
    }
    spec = build_pair_cdf_experiment(
        "ablation_latency", configs, protocols, scale, track_cmap_concurrency=False
    )
    return run_experiment(spec, testbed)


def test_ablation_latency_profile(benchmark, testbed, scale):
    result = run_once(benchmark, _sweep, testbed, scale)
    print()
    print(render_pair_cdf(result, "Ablation — MAC latency x virtual packet size"))
    med = {name: result.median(name) for name in result.totals}
    benchmark.extra_info["medians"] = {k: round(v, 2) for k, v in med.items()}
    # Small virtual packets are cheap on hardware but costly on the
    # software MAC — the amortisation argument behind N_vpkt = 32.
    soft_penalty = med["soft_nvpkt32"] / max(med["soft_nvpkt4"], 1e-9)
    hw_penalty = med["hw_nvpkt32"] / max(med["hw_nvpkt4"], 1e-9)
    assert soft_penalty > hw_penalty
