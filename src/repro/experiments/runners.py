"""Per-figure experiment builders (paper §5) and their registry.

Each figure is expressed declaratively: a ``build_*`` function turns a
testbed + :class:`ExperimentScale` + seed into an
:class:`~repro.experiments.spec.ExperimentSpec` — a flat list of independent
:class:`~repro.experiments.spec.TrialSpec`s plus a pure reduction to the
figure's result dataclass. :data:`SWEEP_BUILDERS` names them; the CLI, the
sweep service and the tests all run a spec the same way, through
:func:`repro.experiments.executor.run_experiment` (pluggable serial or
process-pool backend, optional
:class:`~repro.experiments.executor.ResultStore` for persistence/resume).
The scale sweep is the one experiment outside the registry: it builds one
testbed per generated world, so :func:`run_scale_sweep` runs it.

All builders accept an :class:`ExperimentScale`; the default is a reduced
scale that preserves the papers' *shapes* in seconds-to-minutes of wall time.
``ExperimentScale.paper()`` matches the paper's sample sizes (50 configs per
CDF, 500 triples, 10 trials per N, 100 s runs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import ResultStore, run_experiment
from repro.experiments.scenarios import (
    ApTopology,
    InterfererTriple,
    PairConfig,
    find_ap_topology,
    find_disjoint_flows,
    find_exposed_terminal_configs,
    find_hidden_interferer_triples,
    find_hidden_terminal_configs,
    find_inrange_configs,
    find_mesh_topologies,
    find_mobility_configs,
)
from repro.experiments.spec import (
    ChurnEvent,
    ExperimentSpec,
    MacSpec,
    MobilitySpec,
    TrialResult,
    TrialSpec,
    coerce_mac,
)
from repro.experiments.topologies import (
    TopologySpec,
    build_topology,
    default_flows_n,
)
from repro.net.testbed import Testbed
from repro.phy.frames import BROADCAST
from repro.util.rng import stable_hash


@dataclass
class ExperimentScale:
    """Sample sizes and run lengths for the harness."""

    configs: int = 10  # pair configs per CDF (paper: 50)
    duration: float = 12.0  # run length, seconds (paper: 100)
    warmup: float = 5.0  # excluded from measurement (paper: 40)
    triples: int = 60  # hidden-interferer triples (paper: 500)
    trials_per_n: int = 2  # AP client draws per N (paper: 10)
    mesh_topologies: int = 4  # mesh instances (paper: 10)
    ht_configs_per_n: int = 4  # Fig. 19 topologies per sender count
    scale_ns: Tuple[int, ...] = (25, 100)  # world sizes for the scale sweep

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(
            configs=50,
            duration=100.0,
            warmup=40.0,
            triples=500,
            trials_per_n=10,
            mesh_topologies=10,
            ht_configs_per_n=8,
            scale_ns=(25, 100, 400),
        )

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A minutes-scale preset for CI and benchmarks."""
        return cls(scale_ns=(25, 100, 400))

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """A seconds-scale preset for tests."""
        return cls(
            configs=3,
            duration=6.0,
            warmup=2.5,
            triples=10,
            trials_per_n=1,
            mesh_topologies=2,
            ht_configs_per_n=2,
            scale_ns=(25, 64),
        )

    @classmethod
    def preset(cls, name: str) -> "ExperimentScale":
        """Resolve a named preset (``smoke`` | ``quick`` | ``paper``) — the
        names the CLI and the service's HTTP submit path accept."""
        presets = {"smoke": cls.smoke, "quick": cls.quick, "paper": cls.paper}
        if name not in presets:
            raise KeyError(
                f"unknown scale preset {name!r}; pick from {sorted(presets)}"
            )
        return presets[name]()


def sample_median(vals: Sequence[float]) -> float:
    """Upper median — the convention every result class here uses; 0 if empty."""
    s = sorted(vals)
    return s[len(s) // 2] if s else 0.0


# ======================================================================
# §4.2: single-link calibration
# ======================================================================
@dataclass
class CalibrationResult:
    """Paper §4.2: CMAP 5.04 Mb/s vs 802.11 5.07 Mb/s on one link."""

    cmap_mbps: float
    dcf_mbps: float
    pair: Tuple[int, int]


def build_single_link_calibration(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> ExperimentSpec:
    scale = scale or ExperimentScale()
    links = testbed.links
    pair = None
    for a in links.node_ids:
        for b in links.node_ids:
            if a != b and links.potential_tx_link(a, b) and links.strong_signal(a, b):
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        raise RuntimeError("testbed has no strong potential transmission link")
    trials = [
        TrialSpec(
            trial_id=f"calibration/{name}",
            nodes=pair,
            flows=(pair,),
            mac=MacSpec.of(protocol),
            run_seed=seed,
            duration=scale.duration,
            warmup=scale.warmup,
        )
        for name, protocol in (("cmap", "cmap"), ("dcf", "dcf"))
    ]

    def reduce(results: List[TrialResult]) -> CalibrationResult:
        cmap_res, dcf_res = results
        return CalibrationResult(cmap_res.mbps(*pair), dcf_res.mbps(*pair), pair)

    return ExperimentSpec("calibration", trials, reduce)


# ======================================================================
# Figs. 12 / 13 / 15 / 20: two-pair CDF experiments
# ======================================================================
@dataclass
class PairCdfResult:
    """One CDF figure: per-protocol total throughput across configurations."""

    figure: str
    configs: List[PairConfig]
    #: protocol label -> total throughput (Mb/s) per configuration.
    totals: Dict[str, List[float]]
    #: protocol label -> per-flow throughput pairs per configuration.
    per_flow: Dict[str, List[Tuple[float, float]]]
    #: CMAP curve label -> concurrency fraction per configuration (the
    #: curves that measured it: ``cmap``, ``cmap_win1``, ...).
    concurrency: Dict[str, List[float]] = field(default_factory=dict)

    def median(self, protocol: str) -> float:
        return sample_median(self.totals[protocol])

    def gain_over(self, protocol: str, baseline: str) -> float:
        """Ratio of medians — the paper's headline "2x over CSMA"."""
        base = self.median(baseline)
        return self.median(protocol) / base if base > 0 else float("inf")


def _pair_cdf_trials(
    figure: str,
    configs: List[PairConfig],
    protocols: Dict[str, MacSpec],
    scale: ExperimentScale,
    track_cmap_concurrency: bool,
) -> List[TrialSpec]:
    trials: List[TrialSpec] = []
    for idx, config in enumerate(configs):
        for name, mac in protocols.items():
            track = track_cmap_concurrency and name.startswith("cmap")
            trials.append(
                TrialSpec(
                    trial_id=f"{figure}/{idx}/{name}",
                    nodes=config.nodes,
                    flows=config.flows,
                    mac=mac,
                    run_seed=idx,
                    duration=scale.duration,
                    warmup=scale.warmup,
                    track_tx=track,
                    metrics=("concurrency",) if track else (),
                )
            )
    return trials


def _reduce_pair_cdf(
    figure: str,
    configs: List[PairConfig],
    protocol_names: Sequence[str],
    results: List[TrialResult],
) -> PairCdfResult:
    totals: Dict[str, List[float]] = {name: [] for name in protocol_names}
    per_flow: Dict[str, List[Tuple[float, float]]] = {
        name: [] for name in protocol_names
    }
    concurrency: Dict[str, List[float]] = {}
    it = iter(results)
    for config in configs:
        for name in protocol_names:
            res = next(it)
            f1 = res.mbps(config.s1, config.r1)
            f2 = res.mbps(config.s2, config.r2)
            totals[name].append(f1 + f2)
            per_flow[name].append((f1, f2))
            if "concurrency" in res.metrics:
                concurrency.setdefault(name, []).append(res.metrics["concurrency"])
    return PairCdfResult(figure, configs, totals, per_flow, concurrency)


def build_pair_cdf_experiment(
    figure: str,
    configs: List[PairConfig],
    protocols: Dict[str, object],
    scale: ExperimentScale,
    track_cmap_concurrency: bool = True,
) -> ExperimentSpec:
    """Build the generic two-pair CDF experiment (also used by ablations).

    ``protocols`` values may be :class:`MacSpec`s, registered protocol names,
    or raw :data:`MacFactory` callables (serial-backend only).
    """
    macs = {name: coerce_mac(m) for name, m in protocols.items()}
    trials = _pair_cdf_trials(figure, configs, macs, scale, track_cmap_concurrency)

    def reduce(results: List[TrialResult]) -> PairCdfResult:
        return _reduce_pair_cdf(figure, configs, list(macs), results)

    return ExperimentSpec(figure, trials, reduce)


def build_exposed_terminals(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    include_win1: bool = True,
) -> ExperimentSpec:
    """Fig. 12: exposed terminals. Curves: CS+acks, CS-off+no-acks, CMAP,
    and CMAP with a window of one virtual packet (the §5.2 ablation)."""
    scale = scale or ExperimentScale()
    configs = find_exposed_terminal_configs(testbed, scale.configs, seed)
    protocols = {
        "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
        "cs_off_noacks": MacSpec.of("dcf", carrier_sense=False, acks=False),
        "cmap": MacSpec.of("cmap"),
    }
    if include_win1:
        protocols["cmap_win1"] = MacSpec.of("cmap", nwindow=1)
    return build_pair_cdf_experiment("fig12", configs, protocols, scale)


def build_inrange_senders(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Fig. 13: two senders in range of each other, cross links free."""
    scale = scale or ExperimentScale()
    configs = find_inrange_configs(testbed, scale.configs, seed)
    protocols = {
        "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
        "cs_off_acks": MacSpec.of("dcf", carrier_sense=False, acks=True),
        "cs_off_noacks": MacSpec.of("dcf", carrier_sense=False, acks=False),
        "cmap": MacSpec.of("cmap"),
    }
    return build_pair_cdf_experiment("fig13", configs, protocols, scale)


def build_hidden_terminals(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Fig. 15: senders out of range, receivers hear both senders."""
    scale = scale or ExperimentScale()
    configs = find_hidden_terminal_configs(testbed, scale.configs, seed)
    protocols = {
        "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
        "cs_off_acks": MacSpec.of("dcf", carrier_sense=False, acks=True),
        "cmap": MacSpec.of("cmap"),
    }
    return build_pair_cdf_experiment("fig15", configs, protocols, scale)


@dataclass
class BitrateSweepResult:
    """Fig. 20: exposed-terminal CDFs at 6/12/18 Mb/s."""

    #: rate (Mb/s) -> protocol -> totals across configs.
    by_rate: Dict[int, PairCdfResult]


def build_bitrate_sweep(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    rates: Sequence[int] = (6, 12, 18),
) -> ExperimentSpec:
    """Fig. 20: repeat the exposed-terminal experiment at higher bit-rates.

    Control frames (headers, trailers, ACKs, interferer lists) stay at the
    base rate, as in §5.8.
    """
    scale = scale or ExperimentScale()
    configs = find_exposed_terminal_configs(testbed, scale.configs, seed)
    groups: List[Tuple[int, Dict[str, MacSpec], List[TrialSpec]]] = []
    for mbps in rates:
        protocols = {
            "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True,
                                data_rate=mbps),
            "cmap": MacSpec.of("cmap", data_rate=mbps, control_rate=6),
        }
        trials = _pair_cdf_trials(
            f"fig20@{mbps}", configs, protocols, scale,
            track_cmap_concurrency=True,
        )
        groups.append((mbps, protocols, trials))

    def reduce(results: List[TrialResult]) -> BitrateSweepResult:
        out: Dict[int, PairCdfResult] = {}
        pos = 0
        for mbps, protocols, trials in groups:
            chunk = results[pos:pos + len(trials)]
            pos += len(trials)
            out[mbps] = _reduce_pair_cdf(
                f"fig20@{mbps}", configs, list(protocols), chunk
            )
        return BitrateSweepResult(out)

    all_trials = [t for _, _, trials in groups for t in trials]
    return ExperimentSpec("fig20", all_trials, reduce)


# ======================================================================
# Dynamic world: mobility and churn sweeps (§3.4 adaptation)
# ======================================================================
@dataclass
class MobilitySweepResult:
    """CMAP vs DCF as one sender walks: total throughput by walk speed."""

    speeds: Tuple[float, ...]
    #: speed (m/s) -> protocol -> total throughput per configuration.
    totals: Dict[float, Dict[str, List[float]]]
    configs: List[PairConfig] = field(default_factory=list)

    def median(self, speed: float, protocol: str) -> float:
        return sample_median(self.totals[speed][protocol])


def build_mobility_sweep(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    speeds: Sequence[float] = (0.0, 0.5, 1.5, 3.0),
) -> ExperimentSpec:
    """Sweep walk speed: sender 2 of each pair config random-waypoints
    across the floor while both flows stay saturated.

    At 0 m/s this is a plain static two-pair run; as speed grows the
    conflict relations churn faster than the map's measurement window and
    the adaptation machinery (entry timeouts, staleness pruning) is what
    keeps CMAP's verdicts current. DCF, whose carrier sense needs no
    learning, is the control.
    """
    scale = scale or ExperimentScale()
    configs = find_mobility_configs(testbed, scale.configs, seed)
    protocols = {
        "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
        "cmap": MacSpec.of("cmap"),
    }
    trials: List[TrialSpec] = []
    for speed in speeds:
        for idx, config in enumerate(configs):
            mobility = None
            if speed > 0:
                mobility = MobilitySpec.of(
                    "random_waypoint",
                    nodes=(config.s2,),
                    speed_mps=speed,
                    step_interval=0.25,
                )
            for name, mac in protocols.items():
                trials.append(
                    TrialSpec(
                        trial_id=f"mobility/v{speed}/{idx}/{name}",
                        nodes=config.nodes,
                        flows=config.flows,
                        mac=mac,
                        run_seed=idx,
                        duration=scale.duration,
                        warmup=scale.warmup,
                        mobility=mobility,
                    )
                )

    def reduce(results: List[TrialResult]) -> MobilitySweepResult:
        totals: Dict[float, Dict[str, List[float]]] = {
            s: {name: [] for name in protocols} for s in speeds
        }
        it = iter(results)
        for speed in speeds:
            for config in configs:
                for name in protocols:
                    res = next(it)
                    totals[speed][name].append(
                        res.mbps(config.s1, config.r1)
                        + res.mbps(config.s2, config.r2)
                    )
        return MobilitySweepResult(tuple(speeds), totals, configs)

    return ExperimentSpec("mobility", trials, reduce)


@dataclass
class ChurnSweepResult:
    """CMAP vs DCF as senders join/leave: total throughput by churn period."""

    periods: Tuple[float, ...]
    #: toggle period in seconds (0 = no churn) -> protocol -> totals.
    totals: Dict[float, Dict[str, List[float]]]

    def median(self, period: float, protocol: str) -> float:
        return sample_median(self.totals[period][protocol])


def _churn_events(
    node: int, warmup: float, duration: float, period: float
) -> Tuple[ChurnEvent, ...]:
    """Alternate leave/join for ``node`` every ``period`` seconds.

    The first departure lands half a period into the measurement window so
    even a period comparable to the window produces real churn.
    """
    events: List[ChurnEvent] = []
    t = warmup + period / 2.0
    op = "leave"
    while t < duration:
        events.append((t, op, node))
        op = "join" if op == "leave" else "leave"
        t += period
    return tuple(events)


def build_churn_sweep(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    periods: Sequence[float] = (0.0, 4.0, 2.0),
    flows_n: int = 3,
) -> ExperimentSpec:
    """Sweep membership churn: one sender of an ``flows_n``-flow set toggles
    out of and back into the network every ``period`` seconds.

    Each departure dissolves every conflict involving the churner; each
    return must be re-learned from fresh loss measurements. Shorter periods
    stress the map's staleness machinery harder. Period 0 is the static
    control.
    """
    scale = scale or ExperimentScale()
    flow_sets = find_disjoint_flows(testbed, flows_n, scale.configs, seed)
    protocols = {
        "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
        "cmap": MacSpec.of("cmap"),
    }
    trials: List[TrialSpec] = []
    for period in periods:
        for idx, flows in enumerate(flow_sets):
            churner = flows[0][0]  # first flow's sender toggles
            churn = (
                _churn_events(churner, scale.warmup, scale.duration, period)
                if period > 0
                else ()
            )
            nodes = tuple(dict.fromkeys(n for f in flows for n in f))
            for name, mac in protocols.items():
                trials.append(
                    TrialSpec(
                        trial_id=f"churn/p{period}/{idx}/{name}",
                        nodes=nodes,
                        flows=flows,
                        mac=mac,
                        run_seed=idx,
                        duration=scale.duration,
                        warmup=scale.warmup,
                        churn=churn,
                    )
                )

    def reduce(results: List[TrialResult]) -> ChurnSweepResult:
        totals: Dict[float, Dict[str, List[float]]] = {
            p: {name: [] for name in protocols} for p in periods
        }
        it = iter(results)
        for period in periods:
            for flows in flow_sets:
                for name in protocols:
                    res = next(it)
                    totals[period][name].append(
                        sum(res.mbps(s, r) for s, r in flows)
                    )
        return ChurnSweepResult(tuple(periods), totals)

    return ExperimentSpec("churn", trials, reduce)


# ======================================================================
# Fig. 14: hidden-interferer scatter (§5.4)
# ======================================================================
@dataclass
class ScatterPoint:
    """One Fig. 14 point plus the §5.4 CMAP expectation inputs."""

    triple: InterfererTriple
    min_prr: float  # min(PRR(I->R), PRR(I->S))
    isolated_mbps: float
    interfered_mbps: float
    #: p = max(pr + ps - 1, 0), set via :meth:`set_hear_probability`.
    _p: float = 0.0

    @property
    def normalized_throughput(self) -> float:
        if self.isolated_mbps <= 0:
            return 0.0
        return min(1.0, self.interfered_mbps / self.isolated_mbps)

    @property
    def hear_probability(self) -> float:
        """p = max(pr + ps - 1, 0): both S and R hear I (§5.4)."""
        return self._p

    def set_hear_probability(self, pr: float, ps: float) -> None:
        self._p = max(pr + ps - 1.0, 0.0)


@dataclass
class HiddenInterfererResult:
    """Fig. 14's scatter and the two §5.4 headline statistics."""

    points: List[ScatterPoint]
    #: fraction with normalised throughput < 0.5 AND min PRR < 0.5
    bottom_left_fraction: float
    #: E[p * 1 + (1 - p) * T] over all points (paper: 0.896)
    expected_cmap_throughput: float


def build_hidden_interferer_scatter(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> ExperimentSpec:
    scale = scale or ExperimentScale()
    triples = find_hidden_interferer_triples(testbed, scale.triples, seed)
    blast = MacSpec.of("dcf", carrier_sense=False, acks=False)  # §5.4 footnote
    trials: List[TrialSpec] = []
    for idx, t in enumerate(triples):
        # Baseline: S -> R alone.
        trials.append(
            TrialSpec(
                trial_id=f"fig14/{idx}/isolated",
                nodes=(t.sender, t.receiver),
                flows=((t.sender, t.receiver),),
                mac=blast,
                run_seed=idx,
                duration=scale.duration / 2,
                warmup=scale.warmup / 2,
            )
        )
        # With the interferer blasting continuously.
        trials.append(
            TrialSpec(
                trial_id=f"fig14/{idx}/interfered",
                nodes=tuple({t.sender, t.receiver, t.interferer,
                             t.interferer_receiver}),
                flows=((t.sender, t.receiver),
                       (t.interferer, t.interferer_receiver)),
                mac=blast,
                run_seed=idx,
                duration=scale.duration / 2,
                warmup=scale.warmup / 2,
            )
        )

    links = testbed.links

    def reduce(results: List[TrialResult]) -> HiddenInterfererResult:
        points: List[ScatterPoint] = []
        for idx, t in enumerate(triples):
            isolated = results[2 * idx].mbps(t.sender, t.receiver)
            interfered = results[2 * idx + 1].mbps(t.sender, t.receiver)
            pr = links.prr(t.interferer, t.receiver)
            ps = links.prr(t.interferer, t.sender)
            point = ScatterPoint(t, min(pr, ps), isolated, interfered)
            point.set_hear_probability(pr, ps)
            points.append(point)
        usable = [p for p in points if p.isolated_mbps > 0.1]
        bottom_left = sum(
            1 for p in usable if p.normalized_throughput < 0.5 and p.min_prr < 0.5
        )
        expected = sum(
            p.hear_probability + (1 - p.hear_probability) * p.normalized_throughput
            for p in usable
        )
        n = max(1, len(usable))
        return HiddenInterfererResult(points, bottom_left / n, expected / n)

    return ExperimentSpec("fig14", trials, reduce)


# ======================================================================
# Figs. 17 / 18: access-point topologies (§5.6)
# ======================================================================
@dataclass
class ApResult:
    """Figs. 17 and 18: aggregate and per-sender throughput by N."""

    #: N -> protocol -> list of aggregate throughput (Mb/s), one per trial.
    aggregate: Dict[int, Dict[str, List[float]]]
    #: protocol -> pooled per-sender throughputs across all N and trials.
    per_sender: Dict[str, List[float]]
    #: N -> list of per-receiver header-or-trailer rates (CMAP runs).
    ht_rates: Dict[int, List[float]]


def build_ap_topology(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    n_values: Sequence[int] = (3, 4, 5, 6),
    protocols: Optional[Dict[str, object]] = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Figs. 17 / 18: one AP per §5.6 floor region, N concurrent flows.

    ``seed`` is accepted for the registry's uniform signature and unused:
    APs are fixed per testbed and each trial's clients are drawn from its
    own (N, trial) seed, so AP topologies do not move with the
    configuration seed.
    """
    scale = scale or ExperimentScale()
    if protocols is None:
        protocols = {
            "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
            "cs_off": MacSpec.of("dcf", carrier_sense=False, acks=True),
            "cmap": MacSpec.of("cmap"),
        }
    macs = {name: coerce_mac(m) for name, m in protocols.items()}
    plan: List[Tuple[int, int, ApTopology]] = []
    trials: List[TrialSpec] = []
    for n in n_values:
        for trial in range(scale.trials_per_n):
            topo = find_ap_topology(testbed, n, trial_seed=trial)
            plan.append((n, trial, topo))
            for name, mac in macs.items():
                trials.append(
                    TrialSpec(
                        trial_id=f"fig17/n{n}/t{trial}/{name}",
                        nodes=topo.nodes,
                        flows=topo.flows,
                        mac=mac,
                        run_seed=1000 * n + trial,
                        metrics=("ht_rates",) if name == "cmap" else (),
                        duration=scale.duration,
                        warmup=scale.warmup,
                    )
                )

    def reduce(results: List[TrialResult]) -> ApResult:
        aggregate: Dict[int, Dict[str, List[float]]] = {}
        per_sender: Dict[str, List[float]] = {name: [] for name in macs}
        ht_rates: Dict[int, List[float]] = {}
        it = iter(results)
        for n, trial, topo in plan:
            aggregate.setdefault(n, {name: [] for name in macs})
            ht_rates.setdefault(n, [])
            for name in macs:
                res = next(it)
                flows = [res.mbps(s, r) for s, r in topo.flows]
                aggregate[n][name].append(sum(flows))
                per_sender[name].extend(flows)
                if "ht_rates" in res.metrics:
                    ht_rates[n].extend(res.metrics["ht_rates"])
        return ApResult(aggregate, per_sender, ht_rates)

    return ExperimentSpec("fig17", trials, reduce)


# ======================================================================
# Fig. 16 / Fig. 19: header-trailer reception statistics
# ======================================================================
@dataclass
class HeaderTrailerCdfResult:
    """Fig. 16: reception rates of header vs header-or-trailer per pair."""

    inrange_header: List[float]
    inrange_either: List[float]
    outofrange_header: List[float]
    outofrange_either: List[float]


def build_header_trailer_cdf(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Fig. 16: computed from CMAP runs of the §5.3 (senders in range) and
    §5.5 (senders out of range) experiments."""
    scale = scale or ExperimentScale()
    trials: List[TrialSpec] = []
    labels: List[str] = []
    for label, finder in (
        ("inrange", find_inrange_configs),
        ("outofrange", find_hidden_terminal_configs),
    ):
        configs = finder(testbed, scale.configs, seed)
        for idx, config in enumerate(configs):
            labels.append(label)
            trials.append(
                TrialSpec(
                    trial_id=f"fig16/{label}/{idx}",
                    nodes=config.nodes,
                    flows=config.flows,
                    mac=MacSpec.of("cmap"),
                    run_seed=idx,
                    duration=scale.duration,
                    warmup=scale.warmup,
                    metrics=("ht_stats",),
                )
            )

    def reduce(results: List[TrialResult]) -> HeaderTrailerCdfResult:
        out = {"inrange": ([], []), "outofrange": ([], [])}
        for label, res in zip(labels, results):
            for header, either in res.metrics["ht_stats"]:
                out[label][0].append(header)
                out[label][1].append(either)
        return HeaderTrailerCdfResult(
            inrange_header=out["inrange"][0],
            inrange_either=out["inrange"][1],
            outofrange_header=out["outofrange"][0],
            outofrange_either=out["outofrange"][1],
        )

    return ExperimentSpec("fig16", trials, reduce)


@dataclass
class HtDensityResult:
    """Fig. 19: header-or-trailer reception rate vs concurrent sender count."""

    #: N -> list of per-receiver header-or-trailer rates.
    rates_by_n: Dict[int, List[float]]


def build_header_trailer_density(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    n_values: Sequence[int] = (2, 3, 4, 5, 6, 7),
    seed: int = 0,
) -> ExperimentSpec:
    """Fig. 19: N concurrent saturated CMAP flows on random potential
    transmission links; collect P(header or trailer) at each receiver."""
    scale = scale or ExperimentScale()
    links = testbed.links
    tx_links = [
        (a, b)
        for a, b in itertools.permutations(links.node_ids, 2)
        if links.potential_tx_link(a, b)
    ]
    rng = testbed.rngs.fork("htdensity", seed).stream("sample")
    trials: List[TrialSpec] = []
    trial_n: List[int] = []
    for n in n_values:
        for trial in range(scale.ht_configs_per_n):
            # Sample n disjoint flows.
            flows: List[Tuple[int, int]] = []
            used: set = set()
            attempts = 0
            while len(flows) < n and attempts < 2000:
                attempts += 1
                s, r = tx_links[int(rng.integers(0, len(tx_links)))]
                if s in used or r in used:
                    continue
                flows.append((s, r))
                used.update((s, r))
            if len(flows) < n:
                continue
            trial_n.append(n)
            trials.append(
                TrialSpec(
                    trial_id=f"fig19/n{n}/t{trial}",
                    nodes=tuple(used),
                    flows=tuple(flows),
                    mac=MacSpec.of("cmap"),
                    run_seed=100 * n + trial,
                    duration=scale.duration,
                    warmup=scale.warmup,
                    metrics=("ht_rates",),
                )
            )

    def reduce(results: List[TrialResult]) -> HtDensityResult:
        rates_by_n: Dict[int, List[float]] = {n: [] for n in n_values}
        for n, res in zip(trial_n, results):
            rates_by_n[n].extend(res.metrics["ht_rates"])
        return HtDensityResult(rates_by_n)

    return ExperimentSpec("fig19", trials, reduce)


# ======================================================================
# §5.7: two-hop content dissemination mesh
# ======================================================================
@dataclass
class MeshResult:
    """§5.7: aggregate leaf throughput per topology and protocol."""

    #: protocol -> list of aggregate min-throughput (Mb/s), one per topology.
    aggregate: Dict[str, List[float]]

    def mean(self, protocol: str) -> float:
        vals = self.aggregate[protocol]
        return sum(vals) / len(vals) if vals else 0.0

    def gain(self, protocol: str = "cmap", baseline: str = "cs_on") -> float:
        base = self.mean(baseline)
        return self.mean(protocol) / base if base > 0 else float("inf")


def build_mesh_dissemination(
    testbed: Testbed,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    fanout: int = 3,
) -> ExperimentSpec:
    """§5.7: S broadcasts a batch to the A_i (phase 1), then the A_i forward
    to their B_i concurrently (phase 2). Per-leaf throughput is the min of
    its two hops; the aggregate sums over leaves (the paper reports CMAP
    beating carrier sense by 52 % on this aggregate, driven by exposed
    terminals among the A_i -> B_i transfers). The ``cmap_ext`` curve adds
    §5.6's robustness fix and ACK-piggybacked interferer lists, which help
    most on conflict-heavy topologies where deaf senders miss headers."""
    scale = scale or ExperimentScale()
    topologies = find_mesh_topologies(testbed, scale.mesh_topologies, fanout, seed)
    protocols = {
        "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
        "cmap": MacSpec.of("cmap"),
        "cmap_ext": MacSpec.of(
            "cmap", replicate_ht_in_data=True, piggyback_ilist=True
        ),
    }
    trials: List[TrialSpec] = []
    for idx, topo in enumerate(topologies):
        for name, mac in protocols.items():
            # Phase 1: single broadcast sender; per-forwarder goodput.
            trials.append(
                TrialSpec(
                    trial_id=f"mesh/{idx}/{name}/phase1",
                    nodes=topo.nodes,
                    flows=((topo.source, BROADCAST),),
                    measure=tuple((topo.source, a) for a in topo.forwarders),
                    mac=mac,
                    run_seed=2 * idx,
                    duration=scale.duration / 2,
                    warmup=scale.warmup / 2,
                )
            )
            # Phase 2: concurrent forwarder -> leaf transfers.
            trials.append(
                TrialSpec(
                    trial_id=f"mesh/{idx}/{name}/phase2",
                    nodes=topo.nodes,
                    flows=tuple(zip(topo.forwarders, topo.leaves)),
                    mac=mac,
                    run_seed=2 * idx + 1,
                    duration=scale.duration / 2,
                    warmup=scale.warmup / 2,
                )
            )

    def reduce(results: List[TrialResult]) -> MeshResult:
        aggregate: Dict[str, List[float]] = {name: [] for name in protocols}
        it = iter(results)
        for idx, topo in enumerate(topologies):
            for name in protocols:
                phase1 = next(it)
                phase2 = next(it)
                total = 0.0
                for a, b in zip(topo.forwarders, topo.leaves):
                    total += min(phase1.mbps(topo.source, a), phase2.mbps(a, b))
                aggregate[name].append(total)
        return MeshResult(aggregate)

    return ExperimentSpec("mesh", trials, reduce)


# ======================================================================
# Scale sweep: generated worlds with RSS-cutoff neighborhood culling
# ======================================================================
#: Topology families the scale sweep exercises by default (all registered
#: in repro.experiments.topologies.TOPOLOGIES).
DEFAULT_SCALE_TOPOLOGIES: Tuple[str, ...] = (
    "grid", "uniform", "clustered", "corridor", "hidden_cells",
    "exposed_cells",
)


@dataclass
class ScaleCaseResult:
    """One generated world's outcome: aggregate throughput + fan-out."""

    topology: str
    n: int
    flows: int
    #: protocol -> aggregate throughput (Mb/s), one entry per trial seed.
    totals: Dict[str, List[float]]
    #: culling diagnostics from the "fanout" metric (first cmap trial, or
    #: the first trial carrying the metric when no protocol is named
    #: "cmap"): tables / attached / mean_delivered / mean_interference_only.
    fanout: Dict[str, float] = field(default_factory=dict)

    def median(self, protocol: str) -> float:
        return sample_median(self.totals[protocol])


@dataclass
class ScaleSweepResult:
    """The scale sweep: every (topology family, N) world's case result."""

    cases: List[ScaleCaseResult]

    def case(self, topology: str, n: int) -> ScaleCaseResult:
        """Look up one case. Note cell tilings round N down to a multiple
        of 4 at build time, so ask for the rounded value (it is what the
        report prints)."""
        for c in self.cases:
            if c.topology == topology and c.n == n:
                return c
        available = [(c.topology, c.n) for c in self.cases]
        raise KeyError(
            f"no scale case {topology!r} at N={n}; available: {available}"
        )


def build_scale_sweep(
    scale: Optional[ExperimentScale] = None,
    seed: int = 1,
    ns: Optional[Sequence[int]] = None,
    topologies: Sequence[str] = DEFAULT_SCALE_TOPOLOGIES,
    protocols: Optional[Dict[str, object]] = None,
    flow_seed: int = 0,
) -> List[Tuple[TopologySpec, Testbed, ExperimentSpec]]:
    """Build one experiment per (topology family, N) generated world.

    Each case attaches *all* N nodes and saturates a constant-density flow
    workload. Nodes outside every flow only listen: each one's radio still
    takes every frame in its neighbourhood (energy, carrier sense and, under
    CMAP, scoring the headers and trailers it overhears) — exactly the
    density cost culling bounds — but it transmits nothing, under CMAP too:
    an interferer list fills only from data addressed to its node, so an
    idle node has none to gossip. Trials run with the topology's culling floors
    (``delivery_floor_dbm`` / ``interference_floor_dbm``), so per-frame
    fan-out is bounded by physical neighborhood instead of N.

    Returns (topology spec, its testbed, its ExperimentSpec) per case;
    :func:`run_scale_sweep` executes them against their own testbeds —
    unlike the paper figures, there is no single shared floor.
    """
    scale = scale or ExperimentScale()
    if ns is None:
        ns = scale.scale_ns
    if protocols is None:
        protocols = {
            "cs_on": MacSpec.of("dcf", carrier_sense=True, acks=True),
            "cmap": MacSpec.of("cmap"),
        }
    macs = {name: coerce_mac(m) for name, m in protocols.items()}
    cases: List[Tuple[TopologySpec, Testbed, ExperimentSpec]] = []
    built: set = set()
    for topology in topologies:
        for n in ns:
            topo = build_topology(topology, n)
            if (topology, topo.n) in built:
                continue  # cell tilings round N down; skip duplicate worlds
            built.add((topology, topo.n))
            testbed = topo.build(seed=seed)
            flows = topo.flows(testbed, default_flows_n(topo.n), flow_seed)
            nodes = tuple(sorted(testbed.positions))
            # The world digest keys persisted results to the *geometry*,
            # not just the family label: TrialSpec fingerprints cover
            # nodes/flows/floors but not placement params or floor sizing,
            # so without it a store resumed after a topology-default change
            # could serve results computed on a different world.
            world = format(
                stable_hash(
                    topo.kind, topo.n, topo.area_per_node_m2, topo.aspect,
                    topo.params, repr(topo.shadowing_sigma_db), seed,
                ),
                "08x",
            )[:8]
            trials: List[TrialSpec] = []
            for t in range(scale.trials_per_n):
                for name, mac in macs.items():
                    trials.append(
                        TrialSpec(
                            trial_id=f"scale/{topo.label}/w{world}/t{t}/{name}",
                            nodes=nodes,
                            flows=flows,
                            mac=mac,
                            run_seed=t,
                            duration=scale.duration,
                            warmup=scale.warmup,
                            metrics=("fanout",),
                            delivery_floor_dbm=topo.delivery_floor_dbm,
                            interference_floor_dbm=topo.interference_floor_dbm,
                        )
                    )

            def reduce(
                results: List[TrialResult],
                topo=topo,
                flows=flows,
                names=list(macs),
                trials_per_n=scale.trials_per_n,
            ) -> ScaleCaseResult:
                totals: Dict[str, List[float]] = {name: [] for name in names}
                #: protocol -> its first trial's fanout metric.
                by_proto: Dict[str, Dict[str, float]] = {}
                it = iter(results)
                for _t in range(trials_per_n):
                    for name in names:
                        res = next(it)
                        totals[name].append(
                            sum(res.mbps(s, r) for s, r in flows)
                        )
                        if name not in by_proto and "fanout" in res.metrics:
                            by_proto[name] = res.metrics["fanout"]
                # Report CMAP's census (the protocol whose header and
                # trailer traffic every neighbour scores); fall back to
                # whichever ran first.
                fanout = by_proto.get(
                    "cmap", next(iter(by_proto.values())) if by_proto else {}
                )
                return ScaleCaseResult(
                    topo.kind, topo.n, len(flows), totals, fanout
                )

            cases.append(
                (topo, testbed, ExperimentSpec(f"scale/{topo.label}", trials, reduce))
            )
    return cases


def run_scale_sweep(
    scale: Optional[ExperimentScale] = None,
    seed: int = 1,
    ns: Optional[Sequence[int]] = None,
    topologies: Sequence[str] = DEFAULT_SCALE_TOPOLOGIES,
    protocols: Optional[Dict[str, object]] = None,
    flow_seed: int = 0,
    backend=None,
    store: Optional[ResultStore] = None,
) -> ScaleSweepResult:
    cases = build_scale_sweep(scale, seed, ns, topologies, protocols, flow_seed)
    results = [
        run_experiment(spec, testbed, backend=backend, store=store)
        for _topo, testbed, spec in cases
    ]
    return ScaleSweepResult(results)


# ======================================================================
# The experiment registry
# ======================================================================
#: figure/sweep name -> builder with the uniform signature
#: ``builder(testbed, scale=None, seed=0, **params) -> ExperimentSpec``.
#: The one registry: ``repro.cli <name> --seed s`` and the service's
#: submit-by-name path both run ``SWEEP_BUILDERS[name](Testbed(s), scale,
#: seed=s)``, so the same name and seed queue the same trials everywhere
#: (tests/test_service_http.py holds the two to it). Every entry's specs
#: must survive the wire round trip (``TrialSpec.to_wire``/``from_wire``)
#: equal and fingerprint-identical — enforced by tests/test_spec_wire.py.
#: The scale sweep is absent by design: it builds one testbed per generated
#: world, so it cannot run against the service's single shared testbed.
SWEEP_BUILDERS: Dict[str, "Callable[..., ExperimentSpec]"] = {
    "calibration": build_single_link_calibration,
    "fig12": build_exposed_terminals,
    "fig13": build_inrange_senders,
    "fig14": build_hidden_interferer_scatter,
    "fig15": build_hidden_terminals,
    "fig16": build_header_trailer_cdf,
    "fig17": build_ap_topology,
    "fig19": build_header_trailer_density,
    "fig20": build_bitrate_sweep,
    "mesh": build_mesh_dissemination,
    "mobility": build_mobility_sweep,
    "churn": build_churn_sweep,
}
