"""Text rendering of experiment results, shaped like the paper's figures.

:func:`render` picks the renderer by the result's type, so any
:data:`~repro.experiments.runners.SWEEP_BUILDERS` entry run through the
executor prints without naming its renderer. The CLI prints the same
rows/series the paper reports, so a reader can diff our measured shape
against the published one (recorded in EXPERIMENTS.md); the paper values
quoted in titles come from the rows of :data:`repro.experiments.claims.CLAIMS`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.stats import Cdf, summarize
from repro.experiments.claims import paper
from repro.experiments.runners import (
    ApResult,
    BitrateSweepResult,
    CalibrationResult,
    ChurnSweepResult,
    HeaderTrailerCdfResult,
    HiddenInterfererResult,
    HtDensityResult,
    MeshResult,
    MobilitySweepResult,
    PairCdfResult,
    ScaleSweepResult,
    sample_median,
)


def _cdf_table(curves: Dict[str, Sequence[float]], unit: str = "Mb/s") -> str:
    """Quantile table for several named CDFs (the paper's CDF figures)."""
    quantiles = (0.1, 0.25, 0.5, 0.75, 0.9)
    width = max(len(name) for name in curves) + 2
    head = "".join(f"{f'p{int(q*100)}':>9}" for q in quantiles)
    lines = [f"{'curve':<{width}}{head}   ({unit})"]
    for name, values in curves.items():
        cdf = Cdf(values)
        row = "".join(f"{cdf.quantile(q):>9.2f}" for q in quantiles)
        lines.append(f"{name:<{width}}{row}")
    return "\n".join(lines)


def render_calibration(result: CalibrationResult) -> str:
    cmap = paper("calibration", "CMAP single-link Mb/s")
    dcf = paper("calibration", "802.11 single-link Mb/s")
    return (
        f"single-link calibration (paper §4.2: CMAP {cmap}, 802.11 {dcf} Mb/s)\n"
        f"  CMAP  : {result.cmap_mbps:.2f} Mb/s\n"
        f"  802.11: {result.dcf_mbps:.2f} Mb/s  (pair {result.pair})"
    )


#: Titles of the paper's two-pair CDF figures; any other figure is titled
#: by its name.
_PAIR_CDF_TITLES = {
    "fig12": "Fig. 12 — exposed terminals",
    "fig13": "Fig. 13 — senders in range",
    "fig15": "Fig. 15 — hidden terminals",
}


def render_pair_cdf(result: PairCdfResult) -> str:
    """One CDF figure, titled as the paper's or by its name."""
    title = _PAIR_CDF_TITLES.get(result.figure, result.figure)
    lines = [title, _cdf_table(result.totals)]
    if "cmap" in result.totals and "cs_on" in result.totals:
        lines.append(
            f"median gain CMAP / CS-on: {result.gain_over('cmap', 'cs_on'):.2f}x"
        )
    # One line per curve: the CMAP headline never pools another curve in.
    for name, values in result.concurrency.items():
        s = summarize(values)
        label = "CMAP" if name == "cmap" else name
        lines.append(
            f"{label} concurrency fraction: mean {s.mean:.2f}, median {s.median:.2f}"
        )
    return "\n".join(lines)


def render_hidden_interferer(result: HiddenInterfererResult) -> str:
    lines = [
        "hidden interferers (paper §5.4, Fig. 14)",
        f"  points: {len(result.points)}",
        f"  bottom-left quadrant fraction: {result.bottom_left_fraction:.3f}"
        f"  (paper: {paper('fig14', 'bottom-left fraction')})",
        f"  expected CMAP normalized throughput: "
        f"{result.expected_cmap_throughput:.3f}"
        f"  (paper: {paper('fig14', 'expected CMAP')})",
    ]
    return "\n".join(lines)


def render_ap(result: ApResult) -> str:
    lines = ["AP topology aggregate throughput (paper Fig. 17)"]
    protocols = list(next(iter(result.aggregate.values())).keys())
    header = "  N " + "".join(f"{p:>10}" for p in protocols) + "   cmap/cs_on"
    lines.append(header)
    for n in sorted(result.aggregate):
        row = f"  {n:<2} "
        means = {}
        for p in protocols:
            vals = result.aggregate[n][p]
            means[p] = sum(vals) / len(vals) if vals else 0.0
            row += f"{means[p]:>10.2f}"
        gain = means.get("cmap", 0) / means["cs_on"] if means.get("cs_on") else 0
        row += f"{gain:>12.2f}x"
        lines.append(row)
    lines.append("")
    cs_on = paper("fig17", "CS-on per-sender median Mb/s")
    cmap = paper("fig17", "CMAP per-sender median Mb/s")
    lines.append(f"per-sender throughput CDF (paper Fig. 18; median {cs_on} vs {cmap})")
    lines.append(_cdf_table(result.per_sender))
    return "\n".join(lines)


def render_ht_cdf(result: HeaderTrailerCdfResult) -> str:
    curves = {
        "in-range, header": result.inrange_header,
        "in-range, either": result.inrange_either,
        "out-of-range, header": result.outofrange_header,
        "out-of-range, either": result.outofrange_either,
    }
    curves = {k: v for k, v in curves.items() if v}
    return "header/trailer reception (paper Fig. 16)\n" + _cdf_table(
        curves, unit="reception rate"
    )


def render_ht_density(result: HtDensityResult) -> str:
    lines = [
        "header-or-trailer reception vs concurrent senders (paper Fig. 19)",
        "  N     mean   median      p10      p25      p75      p90",
    ]
    for n in sorted(result.rates_by_n):
        vals = result.rates_by_n[n]
        if not vals:
            continue
        s = summarize(vals)
        lines.append(
            f"  {n:<3}{s.mean:>8.2f}{s.median:>9.2f}{s.p10:>9.2f}"
            f"{s.p25:>9.2f}{s.p75:>9.2f}{s.p90:>9.2f}"
        )
    return "\n".join(lines)


def render_mesh(result: MeshResult) -> str:
    pct = (paper("mesh", "aggregate gain CMAP / CS-on") - 1) * 100
    lines = [f"two-hop mesh dissemination (paper §5.7: CMAP {pct:+.0f} % over CS)"]
    for name, vals in result.aggregate.items():
        mean = sum(vals) / len(vals) if vals else 0.0
        lines.append(f"  {name:<8} mean aggregate {mean:.2f} Mb/s over {len(vals)} topologies")
    lines.append(f"  gain: {result.gain():.2f}x")
    return "\n".join(lines)


def _sweep_table(
    axis_label: str, axis_values, totals, title: str, unit: str
) -> str:
    protocols = list(next(iter(totals.values())).keys()) if totals else []
    lines = [title]
    header = f"  {axis_label:<10}" + "".join(f"{p:>10}" for p in protocols)
    if "cmap" in protocols and "cs_on" in protocols:
        header += "   cmap/cs_on"
    lines.append(header + f"   (median {unit})")
    for v in axis_values:
        medians = {}
        row = f"  {v:<10}"
        for p in protocols:
            medians[p] = sample_median(totals[v][p])
            row += f"{medians[p]:>10.2f}"
        if "cmap" in medians and "cs_on" in medians:
            gain = medians["cmap"] / medians["cs_on"] if medians["cs_on"] else 0.0
            row += f"{gain:>12.2f}x"
        lines.append(row)
    return "\n".join(lines)


def render_mobility(result: MobilitySweepResult) -> str:
    return _sweep_table(
        "m/s",
        result.speeds,
        result.totals,
        "mobility sweep — total two-pair throughput vs walk speed "
        "(dynamic world; 0 = static control)",
        "Mb/s",
    )


def render_churn(result: ChurnSweepResult) -> str:
    return _sweep_table(
        "period s",
        result.periods,
        result.totals,
        "churn sweep — aggregate throughput vs sender join/leave period "
        "(dynamic world; 0 = static control)",
        "Mb/s",
    )


def render_scale(result: ScaleSweepResult) -> str:
    """The scale sweep: generated worlds under RSS-cutoff culling.

    The fan-out column is the culling headline: mean receivers per frame
    (full + interference-only entries) against the exhaustive N-1 every
    transmission used to pay.
    """
    protocols: list = []
    for c in result.cases:
        for name in c.totals:
            if name not in protocols:
                protocols.append(name)
    with_gain = "cmap" in protocols and "cs_on" in protocols
    header = f"  {'topology':<14}{'N':>5}{'flows':>7}"
    header += "".join(f"{p:>9}" for p in protocols)
    if with_gain:
        header += f"{'gain':>7}"
    lines = [
        "scale sweep — generated worlds, neighborhood-culled fan-out",
        header + "   fan-out (rx+noise / N-1)",
    ]
    for c in result.cases:
        medians = {p: c.median(p) for p in protocols if p in c.totals}
        row = f"  {c.topology:<14}{c.n:>5}{c.flows:>7}"
        row += "".join(f"{medians.get(p, 0.0):>9.2f}" for p in protocols)
        if with_gain:
            cs = medians.get("cs_on", 0.0)
            gain = f"{medians.get('cmap', 0.0) / cs:.2f}x" if cs > 0 else "-"
            row += f"{gain:>7}"
        if c.fanout:
            fo = (
                f"{c.fanout['mean_delivered']:.1f}+"
                f"{c.fanout['mean_interference_only']:.1f} / {c.n - 1}"
            )
        else:
            fo = "-"
        lines.append(row + f"   {fo}")
    return "\n".join(lines)


def render_bitrate_sweep(result: BitrateSweepResult) -> str:
    lines = ["exposed terminals at multiple bit-rates (paper Fig. 20)"]
    for mbps in sorted(result.by_rate):
        sub = result.by_rate[mbps]
        lines.append(f"-- {mbps} Mb/s --")
        lines.append(_cdf_table(sub.totals))
        lines.append(
            f"median gain CMAP / CS-on: {sub.gain_over('cmap', 'cs_on'):.2f}x"
        )
    return "\n".join(lines)


_RENDERERS = {
    CalibrationResult: render_calibration,
    PairCdfResult: render_pair_cdf,
    HiddenInterfererResult: render_hidden_interferer,
    ApResult: render_ap,
    HeaderTrailerCdfResult: render_ht_cdf,
    HtDensityResult: render_ht_density,
    MeshResult: render_mesh,
    MobilitySweepResult: render_mobility,
    ChurnSweepResult: render_churn,
    ScaleSweepResult: render_scale,
    BitrateSweepResult: render_bitrate_sweep,
}


def render(result) -> str:
    """Render any experiment's result with the renderer for its type."""
    try:
        renderer = _RENDERERS[type(result)]
    except KeyError:
        raise TypeError(f"no renderer for {type(result).__name__}") from None
    return renderer(result)
