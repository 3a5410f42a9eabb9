"""Fig. 16: probability of receiving a virtual packet's header vs either
header or trailer, from the §5.3 (in range) and §5.5 (out of range) runs.

Paper: P(header or trailer) dominates P(header) in both experiments; the
trailer's benefit is largest when senders are out of range and collide
persistently; for in-range equal-size packets the either-probability is ~1.
"""

from conftest import run_once

from repro.analysis.stats import summarize
from repro.experiments.executor import run_experiment
from repro.experiments.report import render_ht_cdf
from repro.experiments.runners import build_header_trailer_cdf


def test_fig16_header_or_trailer(benchmark, testbed, scale, backend):
    spec = build_header_trailer_cdf(testbed, scale)
    result = run_once(benchmark, run_experiment, spec, testbed, backend=backend)
    print()
    print(render_ht_cdf(result))
    either_med = summarize(result.inrange_either).median
    header_med = summarize(result.inrange_header).median
    benchmark.extra_info.update(
        inrange_either_median=round(either_med, 3),
        inrange_header_median=round(header_med, 3),
    )
    # Either >= header by construction; in-range either should be near 1.
    assert either_med >= header_med
    assert either_med > 0.85
    if result.outofrange_either:
        oor_e = summarize(result.outofrange_either).median
        oor_h = summarize(result.outofrange_header).median
        assert oor_e >= oor_h
