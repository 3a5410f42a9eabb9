"""The paper's claims as data: one table of rows and one runner.

Each :class:`Claim` in :data:`CLAIMS` names an experiment of
:data:`EXPERIMENTS` (every :data:`~repro.experiments.runners.SWEEP_BUILDERS`
entry, plus :func:`robustness`, which rebuilds the world per grid point), a
statistic of its reduced result, the paper's value and section (None where
the paper states no number), and the band the statistic must fall in.
``python -m repro.cli claims [--seed S] [--jobs N]`` runs each experiment
once on ``Testbed(S)`` with configuration seed ``S`` at
:data:`CLAIMS_SCALE`, the one scale the bands were set at. The report's
titles quote the paper's values from these rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.analysis.stats import Cdf, summarize
from repro.experiments.executor import run_experiment
from repro.experiments.runners import (
    SWEEP_BUILDERS,
    ExperimentScale,
    PairCdfResult,
    sample_median,
)
from repro.experiments.scenarios import ScenarioError
from repro.net.testbed import Testbed, TestbedConfig

#: Small, but with enough configurations (and mesh topologies) for every
#: figure's shape to show. Not a ``--scale`` preset: the bands hold here.
CLAIMS_SCALE = ExperimentScale(
    configs=5,
    duration=8.0,
    warmup=3.0,
    triples=24,
    trials_per_n=1,
    mesh_topologies=6,
    ht_configs_per_n=2,
)


@dataclass(frozen=True)
class Claim:
    """One checked statement: ``lo < statistic(result) < hi``.

    An open edge is None. Every edge is strict, so "at least x" is
    ``lo = _ge(x)``, the float just below x (and "at most x" is ``_le(x)``).
    """

    experiment: str
    name: str
    section: str
    paper: Optional[float]
    statistic: Callable[[Any], float]
    lo: Optional[float] = None
    hi: Optional[float] = None

    def holds(self, value: float) -> bool:
        above = self.lo is None or self.lo < value
        below = self.hi is None or value < self.hi
        return above and below


def _ge(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _le(x: float) -> float:
    return math.nextafter(x, math.inf)


# --- Experiments ---
def _figure(name: str):
    def run(testbed, scale, seed, backend=None):
        spec = SWEEP_BUILDERS[name](testbed, scale, seed=seed)
        return run_experiment(spec, testbed, backend=backend)

    return run


#: The robustness rows' worlds: ``TestbedConfig`` overrides, crossed.
ROBUSTNESS_GRID = {"path_loss_exponent": (3.0, 3.3, 3.6), "p_los": (0.3, 0.45, 0.6)}


def robustness(
    testbed, scale, seed, backend=None
) -> Dict[Tuple[Tuple[str, Any], ...], Optional[PairCdfResult]]:
    """Fig. 12 without the window-1 curve, once per world of
    :data:`ROBUSTNESS_GRID`: ``Testbed(testbed.seed)`` rebuilt with each
    combination of overrides, configuration seed 0. Maps each combination
    (sorted (field, value) pairs) to its result, or None where the world
    holds no exposed-terminal configuration. ``seed`` is unused: the world,
    not the draw, varies."""
    small = ExperimentScale(
        configs=min(3, scale.configs),
        duration=min(8.0, scale.duration),
        warmup=min(3.0, scale.warmup),
    )
    names = sorted(ROBUSTNESS_GRID)
    points = {}
    for values in itertools.product(*(ROBUSTNESS_GRID[n] for n in names)):
        overrides = tuple(zip(names, values))
        world = Testbed(testbed.seed, config=TestbedConfig(**dict(overrides)))
        try:
            spec = SWEEP_BUILDERS["fig12"](world, small, seed=0, include_win1=False)
        except ScenarioError:
            points[overrides] = None
            continue
        points[overrides] = run_experiment(spec, world, backend=backend)
    return points


#: experiment name -> ``run(testbed, scale, seed, backend=None) -> result``.
EXPERIMENTS: Dict[str, Callable[..., Any]] = {
    **{name: _figure(name) for name in SWEEP_BUILDERS},
    "robustness": robustness,
}


# --- Statistics of reduced results ---
# nan fails every band: it stands for a check with nothing to compare.
def _ratio(a: float, b: float) -> float:
    """a / b, so ``a > k*b`` reads ``_ratio(a, b) > k``: inf over a zero
    baseline when a > 0, and nan (failing) when both are 0."""
    if b > 0:
        return a / b
    return math.inf if a > 0 else math.nan


def _gain(protocol: str, baseline: str):
    return lambda r: _ratio(r.median(protocol), r.median(baseline))


def _summary_median(values) -> float:
    """The interpolated median of :func:`summarize`; nan if empty."""
    return summarize(values).median if values else math.nan


def _cdf_median(values) -> float:
    """The interpolated median of :class:`Cdf`; nan if empty."""
    return Cdf(values).median if values else math.nan


def _medians(r: PairCdfResult) -> Dict[str, float]:
    return {name: r.median(name) for name in r.totals}


def _of_best(protocol: str):
    return lambda r: _ratio(r.median(protocol), max(_medians(r).values()))


def _lowest_over(baseline: str):
    return lambda r: _ratio(min(_medians(r).values()), r.median(baseline))


def _spread(r: PairCdfResult) -> float:
    return _ratio(min(_medians(r).values()), max(_medians(r).values()))


def _calibration_gap(r) -> float:
    return abs(r.cmap_mbps - r.dcf_mbps) / r.dcf_mbps


def _mean_concurrency(r: PairCdfResult) -> float:
    return sum(r.concurrency["cmap"]) / len(r.concurrency["cmap"])


def _worst_over_cs_on(r: PairCdfResult) -> float:
    return _ratio(min(r.totals["cmap"]), min(r.totals["cs_on"]))


def _worst_over_blast(r: PairCdfResult) -> float:
    """Positive iff CMAP's worst configuration beats blast's worst, or
    blast's worst is above 4 Mb/s."""
    worst_blast = min(r.totals["cs_off_noacks"])
    return max(min(r.totals["cmap"]) - worst_blast, worst_blast - 4.0)


def _ht_gap(where: str):
    """Median P(header or trailer) minus median P(header), ``inrange`` or
    ``outofrange``. The out-of-range runs may measure none (the gap reads
    0: nothing to check); the in-range runs must."""

    def statistic(r) -> float:
        either = getattr(r, f"{where}_either")
        if not either and where == "outofrange":
            return 0.0
        return _summary_median(either) - _summary_median(getattr(r, f"{where}_header"))

    return statistic


def _either_median(r) -> float:
    return _summary_median(r.inrange_either)


def _ap_without_gain(r) -> int:
    """Sender counts N whose mean aggregate CMAP / CS-on is not above 1.05."""
    flat = 0
    for per_proto in r.aggregate.values():
        cs = sum(per_proto["cs_on"]) / len(per_proto["cs_on"])
        cm = sum(per_proto["cmap"]) / len(per_proto["cmap"])
        flat += not (cm / cs if cs else math.inf) > 1.05
    return flat


def _per_sender_median(protocol: str):
    return lambda r: _cdf_median(r.per_sender[protocol])


def _per_sender_gain(r) -> float:
    return _ratio(_cdf_median(r.per_sender["cmap"]), _cdf_median(r.per_sender["cs_on"]))


def _ht_medians(r) -> Dict[int, float]:
    return {n: summarize(v).median for n, v in r.rates_by_n.items() if v}


def _median_at_largest_n(r) -> float:
    medians = _ht_medians(r)
    return medians[max(medians)] if medians else math.nan


def _lowest_rate_gain(r) -> float:
    gains = [_gain("cmap", "cs_on")(sub) for sub in r.by_rate.values()]
    return math.nan if any(map(math.isnan, gains)) else min(gains)


def _cmap_18_over_6(r) -> float:
    return _ratio(r.by_rate[18].median("cmap"), r.by_rate[6].median("cmap"))


def _mesh_gain(protocol: str):
    return lambda r: _ratio(r.mean(protocol), r.mean("cs_on"))


def _lowest(protocol: str):
    """The lowest median over a sweep's axis (walk speeds, churn periods)."""
    return lambda r: min(sample_median(row[protocol]) for row in r.totals.values())


def _nvpkt_penalty_gap(r: PairCdfResult) -> float:
    """How much more N_vpkt 32 gains over 4 in software than in hardware."""
    soft = r.median("soft_nvpkt32") / max(r.median("soft_nvpkt4"), 1e-9)
    hw = r.median("hw_nvpkt32") / max(r.median("hw_nvpkt4"), 1e-9)
    return soft - hw


def _best_cmap_over_arf(r: PairCdfResult) -> float:
    best = max(r.median("cmap@18"), r.median("cmap@18+adapt"))
    return _ratio(best, r.median("arf"))


def _usable(points) -> list:
    return [r for r in points.values() if r is not None]


def _usable_beyond_half(points) -> int:
    return len(_usable(points)) - len(points) // 2


def _usable_not_winning(points) -> int:
    return sum(1 for r in _usable(points) if not _gain("cmap", "cs_on")(r) > 1.2)


# --- The table ---
#: (experiment, section) -> rows of (name, paper, statistic, lo, hi).
_TABLE = {
    # N_vpkt = 32 makes the software MAC comparable to 802.11.
    ("calibration", "§4.2"): [
        ("CMAP single-link Mb/s", 5.04, attrgetter("cmap_mbps"), 4.0, 6.5),
        ("802.11 single-link Mb/s", 5.07, attrgetter("dcf_mbps"), 4.0, 6.5),
        ("|CMAP - 802.11| / 802.11", 0.03 / 5.07, _calibration_gap, None, 0.2),
    ],
    # ~2x median gain, concurrent ~82 % of the time; a window of one virtual
    # packet drops the gain to ~1.5x. CS-on stays near one link's rate.
    ("fig12", "§5.2, Fig. 12"): [
        ("median gain CMAP / CS-on", 2.0, _gain("cmap", "cs_on"), 1.4, None),
        ("window-1 / CMAP median", 1.5 / 2.0, _gain("cmap_win1", "cmap"), None, 1.0),
        ("CMAP mean concurrency", 0.82, _mean_concurrency, 0.5, None),
        ("CMAP / blast median", None, _gain("cmap", "cs_off_noacks"), 0.8, None),
        ("CS-on median Mb/s", None, lambda r: r.median("cs_on"), None, 7.0),
    ],
    # CMAP tracks the better of CS-on and blast per configuration.
    ("fig13", "§5.3, Fig. 13"): [
        ("CMAP / CS-on median", None, _gain("cmap", "cs_on"), 0.85, None),
        ("worst CMAP / worst CS-on", None, _worst_over_cs_on, 0.5, None),
        ("worst-config margin over blast", None, _worst_over_blast, 0.0, None),
    ],
    # Hidden interferers are rare and their expected damage modest.
    ("fig14", "§5.4, Fig. 14"): [
        ("bottom-left fraction", 0.08, attrgetter("bottom_left_fraction"), None, 0.3),
        ("expected CMAP", 0.896, attrgetter("expected_cmap_throughput"), 0.7, None),
    ],
    # No degradation below the status quo, little weight above one pair.
    ("fig15", "§5.5, Fig. 15"): [
        ("CMAP / CS-on median", None, _gain("cmap", "cs_on"), 0.8, None),
        ("CMAP median Mb/s", None, lambda r: r.median("cmap"), None, 8.0),
    ],
    # P(header or trailer) dominates P(header), and is ~1 in range.
    ("fig16", "§5.3, Fig. 16"): [
        ("in range: either - header", None, _ht_gap("inrange"), _ge(0.0), None),
        ("in range: either median", 1.0, _either_median, 0.85, None),
    ],
    ("fig16", "§5.5, Fig. 16"): [
        ("out of range: either - header", None, _ht_gap("outofrange"), _ge(0.0), None),
    ],
    # +21 %..+47 % aggregate; per-sender median 2.5 -> 4.6 Mb/s.
    ("fig17", "§5.6, Fig. 17"): [
        ("N without a +5 % aggregate gain", None, _ap_without_gain, None, _le(1)),
    ],
    ("fig17", "§5.6, Fig. 18"): [
        ("CS-on per-sender median Mb/s", 2.5, _per_sender_median("cs_on"), 0.0, None),
        ("CMAP per-sender median Mb/s", 4.6, _per_sender_median("cmap"), 0.0, None),
        ("per-sender median CMAP / CS-on", 4.6 / 2.5, _per_sender_gain, 1.0, None),
    ],
    # Median reception stays serviceable as concurrent senders grow.
    ("fig19", "§5.6, Fig. 19"): [
        ("sender counts with data", None, lambda r: len(_ht_medians(r)), 0, None),
        ("median at the largest N", None, _median_at_largest_n, 0.5, None),
    ],
    # CMAP keeps its gain at 12 and 18 Mb/s.
    ("fig20", "Fig. 20"): [
        ("lowest median gain over rates", None, _lowest_rate_gain, 1.0, None),
        ("CMAP median 18 / 6 Mb/s", None, _cmap_18_over_6, 1.0, None),
    ],
    # +52 % aggregate over carrier sense.
    ("mesh", "§5.7"): [
        ("aggregate gain CMAP / CS-on", 1.52, _mesh_gain("cmap"), 1.0, None),
        ("CMAP with extensions / CS-on", None, _mesh_gain("cmap_ext"), 1.0, None),
    ],
    # Adaptation: live traffic at every walk speed and churn period.
    ("mobility", "§3.4"): [
        ("lowest CMAP median over speeds", None, _lowest("cmap"), 0.0, None),
        ("lowest CS-on median over speeds", None, _lowest("cs_on"), 0.0, None),
    ],
    ("churn", "§3.4"): [
        ("lowest CMAP median over periods", None, _lowest("cmap"), 0.0, None),
        ("lowest CS-on median over periods", None, _lowest("cs_on"), 0.0, None),
    ],
    # Ablations: the backoff must not hurt hidden pairs, no extension may
    # tank throughput, small virtual packets cost software more than
    # hardware, l_interf = 0.5 is near the best, the full window beats one.
    ("ablation_backoff", "§3.4, §5.5"): [
        ("CMAP / no-backoff median", None, _gain("cmap", "cmap_no_backoff"), 0.8, None),
    ],
    ("ablation_extensions", "§3.1, §5.6"): [
        ("lowest variant / baseline", None, _lowest_over("baseline"), 0.7, None),
    ],
    ("ablation_latency", "§4.1"): [
        ("N_vpkt 32/4 gain: software - hw", None, _nvpkt_penalty_gap, 0.0, None),
    ],
    ("ablation_linterf", "§3.1"): [
        ("l_interf 0.5 / best median", None, _of_best("cmap_li50"), 0.8, None),
    ],
    ("ablation_window", "§3.3, §5.2"): [
        ("window 8 / window 1 median", None, _gain("cmap_w8", "cmap_w1"), 1.0, None),
    ],
    # Related work on exposed pairs: CMAP leads and RTS/CTS cannot beat
    # carrier sense; on hidden pairs CMAP does not degrade.
    ("related_work", "§6"): [
        ("CMAP / best median", None, _of_best("cmap"), _ge(0.95), None),
        ("RTS/CTS / CSMA median", None, _gain("rts_cts", "csma"), None, _le(1.1)),
    ],
    ("rtscts_exposed", "§6"): [
        ("RTS/CTS / CS-on median", None, _gain("rts_cts", "cs_on"), None, _le(1.1)),
        ("CMAP / RTS/CTS median", None, _gain("cmap", "rts_cts"), 1.3, None),
    ],
    ("rtscts_hidden", "§6"): [
        ("CMAP / best median", None, _of_best("cmap"), 0.7, None),
    ],
    # The map-driven downshift must not lose to fixed-rate CMAP, and CMAP
    # must beat ARF, which throttles on collisions.
    ("rate_adaptation", "§3.5"): [
        ("adaptive / fixed CMAP", None, _gain("cmap@18+adapt", "cmap@18"), 0.8, None),
        ("best CMAP / ARF median", None, _best_cmap_over_arf, 1.0, None),
    ],
    # Online, offline and warm-start maps reach the same steady state.
    ("offline_map", "§6"): [
        ("lowest / highest variant median", None, _spread, 0.6, None),
    ],
    # Wherever exposed-terminal configurations exist, CMAP beats CS on them.
    ("robustness", "Fig. 12 per world"): [
        ("usable points beyond half the grid", None, _usable_beyond_half, _ge(0), None),
        ("usable points without a 1.2x gain", None, _usable_not_winning, None, _le(1)),
    ],
}

#: One row per checked statement, grouped by experiment.
CLAIMS: Tuple[Claim, ...] = tuple(
    Claim(experiment, name, section, *rest)
    for (experiment, section), rows in _TABLE.items()
    for name, *rest in rows
)


def paper(experiment: str, name: str) -> float:
    """The paper's value on the named row."""
    for claim in CLAIMS:
        if (claim.experiment, claim.name) == (experiment, name):
            return claim.paper
    raise KeyError((experiment, name))


def evaluate(
    claims: Sequence[Claim], testbed: Testbed, seed: int, backend=None
) -> Iterator[Tuple[Claim, float]]:
    """Each row with its measured statistic, in row order; each experiment
    runs once, at :data:`CLAIMS_SCALE`, through ``backend`` (None: serial),
    when its first row comes up."""
    results: Dict[str, Any] = {}
    for claim in claims:
        if claim.experiment not in results:
            run = EXPERIMENTS[claim.experiment]
            results[claim.experiment] = run(testbed, CLAIMS_SCALE, seed, backend)
        yield claim, float(claim.statistic(results[claim.experiment]))


def _band(claim: Claim) -> str:
    """The band as inequalities; an edge one float off a round number is
    an inclusive one."""
    parts = []
    for edge, strict, inclusive in ((claim.lo, ">", ">="), (claim.hi, "<", "<=")):
        if edge is not None:
            shown = round(edge, 9) + 0.0
            parts.append(f"{strict if shown == edge else inclusive} {shown:g}")
    return ", ".join(parts)


def format_row(claim: Claim, value: float) -> str:
    """Experiment, claim, paper value and section, measured value, band,
    and ``ok`` or ``FAIL``."""
    paper_value = "-" if claim.paper is None else f"{claim.paper:.3g}"
    verdict = "ok" if claim.holds(value) else "FAIL"
    return (
        f"{claim.experiment:<20} {claim.name:<34} paper {paper_value:>7}"
        f" {claim.section:<17} measured {value:>7.3f}  {_band(claim):<16} {verdict}"
    )
