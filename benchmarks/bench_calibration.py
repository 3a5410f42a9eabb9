"""§4.2 calibration: single-link CMAP vs 802.11 throughput.

Paper: CMAP 5.04 Mb/s vs 802.11 5.07 Mb/s at the 6 Mb/s rate — N_vpkt = 32
makes the software MAC comparable to hardware 802.11.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_calibration
from repro.experiments.runners import build_single_link_calibration


def test_single_link_calibration(benchmark, testbed, scale, backend):
    spec = build_single_link_calibration(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_calibration(result))
    benchmark.extra_info["cmap_mbps"] = round(result.cmap_mbps, 3)
    benchmark.extra_info["dcf_mbps"] = round(result.dcf_mbps, 3)
    # Both MACs must land near the paper's ~5 Mb/s operating point.
    assert 4.0 < result.cmap_mbps < 6.5
    assert 4.0 < result.dcf_mbps < 6.5
    # And within ~15 % of each other (the paper engineered them comparable).
    assert abs(result.cmap_mbps - result.dcf_mbps) / result.dcf_mbps < 0.2
