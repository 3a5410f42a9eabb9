"""Simulator workloads: one untraced round, or the traced per-layer pass.

A *round* is one fresh interpreter: set up (imports, world, specs, one short
warm-up trial), then repeat the workload's trials — a spin between each pair,
a collection before each so no trial pays for its predecessor's garbage —
until the round's share of ``--seconds`` is spent. ``run.py`` pools the
rounds: per trial, the median ratio over every repetition of every round.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from typing import Dict, List, Optional

from repro import perf
from repro.experiments.executor import run_trial
from repro.experiments.runners import sample_median
from repro.experiments.spec import TrialResult, TrialSpec
from repro.network import Network

import spin
import workloads

SIM_LAYERS = (
    "engine",
    "medium",
    "radio",
    "reception",
    "fading",
    "mac",
    "kernels",
    "network",
    "experiments",
)


def _warm(testbed, trials: List[TrialSpec]) -> None:
    """Lazy tables (chunk grids, link census, MAC builders) fill on first
    use; a 0.2 s copy of the first trial pays for them once, in set-up."""
    spin.warm_up()
    run_trial(testbed, dataclasses.replace(trials[0], duration=0.2, warmup=0.05))


def _repetition(testbed, trials, samples, inter: spin.Interleaved) -> dict:
    """Run every trial once; append one sample per trial to ``samples``."""
    results: List[TrialResult] = []
    failed = 0
    with perf.recording() as recorder:
        for index, trial in enumerate(trials):
            gc.collect()
            try:
                res, wall_spins, cpu_spins, wall = inter.time(
                    lambda: run_trial(testbed, trial)
                )
            except Exception as exc:  # a trial that raises is a failed op
                print(f"[ruler] trial {trial.trial_id} raised: {exc!r}")
                failed += 1
                continue
            results.append(res)
            samples[index].append([wall_spins, cpu_spins, wall])
    return {
        "digest": workloads.results_digest(results),
        "events": recorder.events,
        "failed": failed,
        "results": results,
    }


def profile_pass(testbed, trials) -> dict:
    """The cProfile pass: exact repro-package call counts, per layer."""
    profile = perf.profile_figure(
        "ruler", lambda: [run_trial(testbed, t) for t in trials]
    )
    layers = profile["layers"]
    calls = sum(
        entry["calls"] for name, entry in layers.items() if name != "other"
    )
    return {
        "calls": calls,
        "wall": profile["wall_seconds"],
        "profiled": profile["profiled_seconds"],
        "layers": {
            name: {
                "self_seconds": entry["self_seconds"],
                "calls": entry["calls"],
            }
            for name, entry in layers.items()
        },
    }


def run_round(
    workload: str,
    seed: int,
    seconds: float,
    started_at: float,
    limit: Optional[int],
    count_calls: bool,
    corrupt: bool,
) -> dict:
    testbed, trials, _timings = workloads.build_sim(workload, seed, limit)
    _warm(testbed, trials)
    setup_s = time.time() - started_at

    samples: List[List[List[float]]] = [[] for _ in trials]
    reps: List[dict] = []
    inter = spin.Interleaved()
    t0 = time.perf_counter()
    while True:
        rep_t0 = time.perf_counter()
        reps.append(_repetition(testbed, trials, samples, inter))
        now = time.perf_counter()
        if (now - t0) + (now - rep_t0) > seconds:
            break

    first = reps[0]
    # Self-test of the gate: a reference no repetition can reproduce.
    want = "corrupted" if corrupt else first["digest"]
    mismatched = sum(
        1
        for rep in reps
        if rep["digest"] != want or rep["events"] != first["events"]
    )
    out = {
        "kind": "sim",
        "setup_s": setup_s,
        "trials": len(trials),
        "reps": len(reps),
        "samples": samples,
        "digest": first["digest"],
        "events": first["events"],
        "attempted": len(trials) * len(reps) + len(reps),
        "failed": sum(rep["failed"] for rep in reps) + mismatched,
        "inputs_digest": workloads.inputs_digest(trials),
        "spec_sha256": [h[:16] for h in workloads.spec_hashes(trials)],
        "measured_s": time.perf_counter() - t0,
    }
    if workload == "pairs_static":
        out["fidelity"] = _fig12_reading(trials, first["results"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if count_calls:
        # After the timed part and the RSS reading: the profiler's tables
        # belong to neither.
        out["calls"] = profile_pass(testbed, trials)["calls"]
        out["calls_trials"] = len(trials)
    return out


def _fig12_reading(trials, results) -> Dict[str, float]:
    """Median Mb/s per protocol, CMAP/CS gain and concurrency — a fidelity
    *reading* at smoke scale (paper: ~2x, 0.82), and the statistics a
    simulator-speed change must leave identical."""
    totals: Dict[str, List[float]] = {}
    concurrency: List[float] = []
    for trial, res in zip(trials, results):
        protocol = trial.trial_id.rsplit("/", 1)[-1]
        totals.setdefault(protocol, []).append(sum(res.flow_mbps.values()))
        if "concurrency" in res.metrics and protocol == "cmap":
            concurrency.append(res.metrics["concurrency"])

    reading = {f"median_mbps.{p}": sample_median(v) for p, v in totals.items()}
    cs_on = reading.get("median_mbps.cs_on", 0.0)
    if cs_on > 0 and "median_mbps.cmap" in reading:
        reading["cmap_over_cs_gain"] = reading["median_mbps.cmap"] / cs_on
        reading["paper_gain"] = 2.0
    if concurrency:
        reading["cmap_concurrency"] = sample_median(concurrency)
        reading["paper_concurrency"] = 0.82
    return reading


def assemble_ms(testbed, trials) -> float:
    """Time ``Network()`` + ``add_node`` + ``add_saturated_flow`` per spec —
    what ``run_trial`` does before the first event."""
    t0 = time.perf_counter()
    for spec in trials:
        net = Network(
            testbed,
            run_seed=spec.run_seed,
            track_tx=spec.track_tx,
            delivery_floor_dbm=spec.delivery_floor_dbm,
            interference_floor_dbm=spec.interference_floor_dbm,
        )
        factory = spec.mac.build()
        for node in spec.nodes:
            net.add_node(node, factory)
        for s, d in spec.flows:
            net.add_saturated_flow(s, d, payload_bytes=spec.payload_bytes)
    return (time.perf_counter() - t0) * 1e3 / len(trials)


def run_traced(workload: str, seed: int, limit: Optional[int]) -> dict:
    """Per-layer numbers for a simulator workload: one plain repetition
    (events, spins per kilo-event), then the same repetition under cProfile
    (self-time shares and exact call counts per layer)."""
    testbed, trials, timings = workloads.build_sim(workload, seed, limit)
    _warm(testbed, trials)
    metrics = dict(timings)
    metrics["network.assemble_ms_per_trial"] = assemble_ms(testbed, trials)

    samples: List[List[List[float]]] = [[] for _ in trials]
    rep = _repetition(testbed, trials, samples, spin.Interleaved())
    plain_wall = sum(s[0][2] for s in samples if s)
    total_spins = sum(s[0][0] for s in samples if s)
    n = len(trials)
    metrics["engine.events_per_trial"] = rep["events"] / n
    metrics["engine.spins_per_kevent"] = total_spins / (rep["events"] / 1e3)

    prof = profile_pass(testbed, trials)
    for layer in SIM_LAYERS:
        entry = prof["layers"].get(layer, {"self_seconds": 0.0, "calls": 0})
        metrics[f"{layer}.self_share"] = entry["self_seconds"] / prof["profiled"]
        metrics[f"{layer}.calls_per_trial"] = entry["calls"] / n
    metrics["trace.overhead_ratio"] = prof["wall"] / plain_wall
    return {
        "kind": "sim",
        "metrics": metrics,
        "attempted": n,
        "failed": rep["failed"],
    }
