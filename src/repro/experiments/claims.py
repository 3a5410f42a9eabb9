"""The paper's claims as data: one table of rows and one runner.

Each :class:`Claim` in :data:`CLAIMS` names an experiment of
:data:`EXPERIMENTS` (every registered figure, plus the ablations and
line-ups that exist only to be checked), a statistic of its reduced result,
the paper's value and section (None where the paper states no number), and
the band the statistic must fall in. ``python -m repro.cli claims [--seed
S]`` runs each experiment once, serially, on ``Testbed(S)`` with
configuration seed ``S`` at :data:`CLAIMS_SCALE`, the one scale the bands
were set at. The report's titles quote the paper's values from these rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.analysis.stats import Cdf, summarize
from repro.core.offline_map import preload_offline_map
from repro.core.params import CmapParams, LatencyProfile
from repro.experiments.executor import run_experiment
from repro.experiments.runners import (
    SWEEP_BUILDERS,
    ExperimentScale,
    PairCdfResult,
    build_pair_cdf_experiment,
    sample_median,
)
from repro.experiments.scenarios import (
    filter_configs_by_rate,
    find_exposed_terminal_configs,
    find_hidden_terminal_configs,
    find_inrange_configs,
)
from repro.experiments.spec import MacSpec
from repro.experiments.sweeps import sweep_testbed_parameters
from repro.mac.autorate import ArfParams, arf_factory
from repro.mac.cs_tuning import CsTuningParams, cs_tuning_factory
from repro.mac.dcf import DcfParams
from repro.mac.ecsma import ecsma_factory
from repro.mac.iamac import iamac_factory
from repro.mac.rtscts import rtscts_factory
from repro.net.testbed import Testbed
from repro.network import Network, cmap_factory, dcf_factory
from repro.phy.modulation import RATE_6M, RATES

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
    def run(testbed, scale, seed):
        spec = SWEEP_BUILDERS[name](testbed, scale, seed=seed)
        return run_experiment(spec, testbed)

    return run


def _pair_cdf(name: str, finder, macs: Callable[[], Dict[str, object]]):
    """A two-pair CDF over ``finder``'s configurations, one curve per MAC.
    The MACs may be factory closures, so it runs on the serial backend."""

    def run(testbed, scale, seed):
        configs = finder(testbed, scale.configs, seed)
        spec = build_pair_cdf_experiment(
            name, configs, macs(), scale, track_cmap_concurrency=False
        )
        return run_experiment(spec, testbed)

    return run


def _decoding_at_18(testbed, n, seed):
    """In-range configurations whose data links still decode at 18 Mb/s."""
    candidates = find_inrange_configs(testbed, n * 6, seed)
    return filter_configs_by_rate(testbed, candidates, 18)[:n]


def _rate_adaptation_macs():
    """Fixed-rate DCF, ARF, fixed-rate CMAP, and CMAP with the rate-aware
    map's defer-or-downshift policy (§3.5's sketch), all at 18 Mb/s."""
    rate18 = RATES[18]
    fixed = CmapParams(data_rate=rate18, control_rate=RATE_6M)
    adaptive = replace(fixed, rate_aware_map=True, adapt_rate_on_defer=True)
    return {
        "dcf@18": dcf_factory(
            params=DcfParams(carrier_sense=True, acks=True, data_rate=rate18)
        ),
        "arf": arf_factory(ArfParams(carrier_sense=True, acks=True)),
        "cmap@18": cmap_factory(fixed),
        "cmap@18+adapt": cmap_factory(adaptive),
    }


def _latency_macs():
    """The §4.1 software MAC's latency against hardware, N_vpkt 32 and 4."""
    soft = LatencyProfile.paper_soft_mac()
    hard = LatencyProfile.hardware()
    return {
        "soft_nvpkt32": cmap_factory(CmapParams(latency=soft)),
        "soft_nvpkt4": cmap_factory(CmapParams(nvpkt=4, latency=soft)),
        "hw_nvpkt32": cmap_factory(CmapParams(latency=hard, t_ackwait=1e-3)),
        "hw_nvpkt4": cmap_factory(CmapParams(nvpkt=4, latency=hard, t_ackwait=1e-3)),
    }


def _rtscts_macs():
    return {"cs_on": dcf_factory(), "rts_cts": rtscts_factory(), "cmap": cmap_factory()}


def _offline_map(testbed, scale, seed) -> PairCdfResult:
    """Online CMAP against defer tables preloaded from an idealised O(n²)
    measurement (§6: RTSS/CTSS, interference maps), frozen (``offline``)
    or still learning (``warm_start``)."""
    configs = find_inrange_configs(testbed, scale.configs, seed)
    variants = ("online", "offline", "warm_start")
    totals = {v: [] for v in variants}
    per_flow = {v: [] for v in variants}
    for idx, config in enumerate(configs):
        for variant in variants:
            net = Network(testbed, run_seed=idx)
            for n in config.nodes:
                net.add_node(n, cmap_factory())
            if variant != "online":
                preload_offline_map(
                    net, list(config.flows), freeze=(variant == "offline")
                )
            for s, r in config.flows:
                net.add_saturated_flow(s, r)
            res = net.run(duration=scale.duration, warmup=scale.warmup)
            f1 = res.flow_mbps(config.s1, config.r1)
            f2 = res.flow_mbps(config.s2, config.r2)
            totals[variant].append(f1 + f2)
            per_flow[variant].append((f1, f2))
    return PairCdfResult("offline_map", configs, totals, per_flow)


def _robustness(testbed, scale, seed):
    """Fig. 12 re-run over path-loss exponent x LOS fraction, each grid
    point a rebuilt ``Testbed(testbed.seed)`` world."""
    small = ExperimentScale(
        configs=min(3, scale.configs),
        duration=min(8.0, scale.duration),
        warmup=min(3.0, scale.warmup),
    )
    grid = {"path_loss_exponent": [3.0, 3.3, 3.6], "p_los": [0.3, 0.45, 0.6]}
    return sweep_testbed_parameters(grid, small, seed=testbed.seed)


#: name -> (configuration finder, MACs) of the two-pair CDFs beyond figures.
_PAIR_CDFS = {
    "ablation_backoff": (
        find_hidden_terminal_configs,
        lambda: {
            "cmap": cmap_factory(CmapParams()),
            # Threshold 1.0: no loss report can trigger a backoff.
            "cmap_no_backoff": cmap_factory(CmapParams(l_backoff=1.0)),
        },
    ),
    "ablation_extensions": (
        find_inrange_configs,
        lambda: {
            "baseline": cmap_factory(CmapParams()),
            "replicate_ht": cmap_factory(CmapParams(replicate_ht_in_data=True)),
            "piggyback": cmap_factory(CmapParams(piggyback_ilist=True)),
            "two_hop": cmap_factory(CmapParams(two_hop_ilist=True)),
        },
    ),
    "ablation_latency": (find_exposed_terminal_configs, _latency_macs),
    "ablation_linterf": (
        find_inrange_configs,
        lambda: {
            f"cmap_li{int(t * 100):02d}": cmap_factory(CmapParams(l_interf=t))
            for t in (0.1, 0.5, 0.9)
        },
    ),
    "ablation_window": (
        find_exposed_terminal_configs,
        lambda: {f"cmap_w{w}": MacSpec.of("cmap", nwindow=w) for w in (1, 2, 4, 8)},
    ),
    "related_work": (
        find_exposed_terminal_configs,
        lambda: {
            "csma": dcf_factory(True, True),
            "rts_cts": rtscts_factory(),
            "ia_mac": iamac_factory(),
            "ecsma": ecsma_factory(),
            "cs_tuning": cs_tuning_factory(CsTuningParams(epoch=0.3)),
            "cmap": cmap_factory(),
        },
    ),
    "rtscts_exposed": (find_exposed_terminal_configs, _rtscts_macs),
    "rtscts_hidden": (find_hidden_terminal_configs, _rtscts_macs),
    "rate_adaptation": (_decoding_at_18, _rate_adaptation_macs),
}

#: experiment name -> ``run(testbed, scale, seed) -> result``.
EXPERIMENTS: Dict[str, Callable[[Testbed, ExperimentScale, int], Any]] = {
    **{name: _figure(name) for name in SWEEP_BUILDERS},
    **{name: _pair_cdf(name, *entry) for name, entry in _PAIR_CDFS.items()},
    "offline_map": _offline_map,
    "robustness": _robustness,
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
    return [p for p in points if p.error is None and p.configs_found > 0]


def _usable_beyond_half(points) -> int:
    return len(_usable(points)) - len(points) // 2


def _usable_not_winning(points) -> int:
    return sum(1 for p in _usable(points) if not p.gain > 1.2)


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
    claims: Sequence[Claim], testbed: Testbed, seed: int
) -> Iterator[Tuple[Claim, float]]:
    """Each row with its measured statistic, in row order; each experiment
    runs once, at :data:`CLAIMS_SCALE`, when its first row comes up."""
    results: Dict[str, Any] = {}
    for claim in claims:
        if claim.experiment not in results:
            run = EXPERIMENTS[claim.experiment]
            results[claim.experiment] = run(testbed, CLAIMS_SCALE, seed)
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
