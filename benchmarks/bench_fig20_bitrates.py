"""Fig. 20: exposed terminals at the 6, 12, and 18 Mb/s 802.11a rates.

Paper: CMAP continues to beat carrier sense at higher bit-rates, though the
number of exposed-terminal opportunities shrinks as the SINR needed to
decode rises (control frames always go at the base rate).
"""

from conftest import run_once

from repro.experiments.executor import run_experiment
from repro.experiments.report import render_bitrate_sweep
from repro.experiments.runners import build_bitrate_sweep


def test_fig20_bitrate_sweep(benchmark, testbed, scale, backend):
    spec = build_bitrate_sweep(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_bitrate_sweep(result))
    gains = {
        mbps: sub.gain_over("cmap", "cs_on") for mbps, sub in result.by_rate.items()
    }
    benchmark.extra_info["gains_by_rate"] = {m: round(g, 2) for m, g in gains.items()}
    # CMAP keeps an advantage at every rate measured.
    for mbps, gain in gains.items():
        assert gain > 1.0, f"no CMAP gain at {mbps} Mb/s ({gain:.2f}x)"
    # Raw throughput grows with the bit-rate.
    assert result.by_rate[18].median("cmap") > result.by_rate[6].median("cmap")
