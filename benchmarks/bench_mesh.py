"""§5.7: two-hop content dissemination mesh (Fig. 11(d)).

Paper: CMAP achieves 52 % higher aggregate throughput than 802.11 with
carrier sense, because the forwarders A_i are frequently exposed terminals
during the concurrent A_i -> B_i transfers.
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_mesh
from repro.experiments.runners import build_mesh_dissemination


def test_mesh_dissemination(benchmark, testbed, scale, backend):
    spec = build_mesh_dissemination(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_mesh(result))
    gain = result.gain("cmap", "cs_on")
    ext_gain = result.gain("cmap_ext", "cs_on")
    benchmark.extra_info["gain"] = round(gain, 2)
    benchmark.extra_info["gain_with_extensions"] = round(ext_gain, 2)
    assert gain > 1.0, f"CMAP mesh gain only {gain:.2f}x (paper: 1.52x)"
    assert ext_gain > 1.0
