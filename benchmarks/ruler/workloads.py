"""The five workloads: which TrialSpecs each one runs, and why.

Every generator is a pure function of ``--seed``. The *world* — the 50-node
testbed, the 64-node uniform floor, and which node pairs the builders pick
on them — is fixed at ``WORLD_SEED``; ``--seed`` re-derives every trial's
``run_seed``, i.e. every random stream a run draws from (fading, backoff,
waypoints). Seeding the world itself was measured and rejected: per-trial
cost moved 31-55 spins across eight dense worlds and 13-20 across mobile
ones, which would bury any code change under the choice of seed, while
re-seeded runs of one world agree to ~1 % in events. Seed 1 keeps the
builders' own run seeds, so ``pairs_static --seed 1`` is exactly the trial
set ``cli fig12 --scale smoke --seed 1`` runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments.runners import (
    ExperimentScale,
    build_churn_sweep,
    build_exposed_terminals,
    build_mobility_sweep,
    build_scale_sweep,
)
from repro.experiments.spec import TrialResult, TrialSpec
from repro.net.testbed import Testbed

WORLD_SEED = 1

SIM_WORKLOADS = ("pairs_static", "dense_static", "pairs_mobile")
SWEEP_WORKLOADS = ("sweep_local", "sweep_fleet")
WORKLOADS = SIM_WORKLOADS + SWEEP_WORKLOADS

#: Trials per generated sweep, and the run length of each (≈8 ms of
#: simulation, so the service, not the simulator, does most of the work).
SWEEP_TRIALS = 240
SWEEP_DURATION = 0.2
SWEEP_WARMUP = 0.05

#: dense_static runs half the issue's 3.0 s so a repetition (two 64-node
#: trials, ≈1 M events) fits a third of one run three times over.
DENSE_SCALE = ExperimentScale(duration=1.5, warmup=0.5, trials_per_n=1)

_SEED_STRIDE = 1009


def _reseed(trials: List[TrialSpec], seed: int) -> List[TrialSpec]:
    """Shift every run seed by the same amount: trials a builder paired on
    one run seed (the protocols of one configuration) stay paired."""
    shift = (seed - 1) * _SEED_STRIDE
    return [dataclasses.replace(t, run_seed=t.run_seed + shift) for t in trials]


def build_sim(
    workload: str, seed: int, limit: Optional[int] = None
) -> Tuple[Testbed, List[TrialSpec], Dict[str, float]]:
    """(testbed, trials, set-up timings in ms) for a simulator workload."""
    t0 = time.perf_counter()
    if workload == "dense_static":
        _topo, testbed, spec = build_scale_sweep(
            DENSE_SCALE, WORLD_SEED, ns=(64,), topologies=("uniform",)
        )[0]
        # The scale builder makes its world and its specs in one call.
        t1 = t2 = time.perf_counter()
        trials = list(spec.trials)
    else:
        testbed = Testbed(seed=WORLD_SEED)
        testbed.links
        t1 = time.perf_counter()
        smoke = ExperimentScale.smoke()
        if workload == "pairs_static":
            trials = list(build_exposed_terminals(testbed, smoke, WORLD_SEED).trials)
        elif workload == "pairs_mobile":
            trials = list(
                build_mobility_sweep(testbed, smoke, WORLD_SEED, speeds=(3.0,)).trials
            ) + list(
                build_churn_sweep(testbed, smoke, WORLD_SEED, periods=(2.0,)).trials
            )
        else:
            raise ValueError(f"{workload!r} is not a simulator workload")
        t2 = time.perf_counter()
    trials = _reseed(trials, seed)
    if limit is not None:
        trials = trials[:limit]
    timings = {
        "net.testbed_build_ms": (t1 - t0) * 1e3,
        "experiments.build_spec_ms": (t2 - t1) * 1e3,
    }
    return testbed, trials, timings


def build_sweep(
    seed: int, trials: int = SWEEP_TRIALS
) -> Tuple[Testbed, List[TrialSpec], Dict[str, float]]:
    """The generated sweep: the pairs_static specs cycled ``trials`` times
    over, each with its own trial id and run seed, cut to ≈8 ms apiece."""
    testbed, base, timings = build_sim("pairs_static", 1)
    t0 = time.perf_counter()
    specs = [
        dataclasses.replace(
            base[k % len(base)],
            trial_id=f"ruler/{k:04d}/{base[k % len(base)].trial_id}",
            run_seed=(seed - 1) * 100_000 + k,
            duration=SWEEP_DURATION,
            warmup=SWEEP_WARMUP,
        )
        for k in range(trials)
    ]
    timings["experiments.build_spec_ms"] += (time.perf_counter() - t0) * 1e3
    return testbed, specs, timings


def spec_hashes(trials: List[TrialSpec]) -> List[str]:
    """sha256 of each generated wire spec: two runs that print the same
    list measured the same inputs."""
    return [
        hashlib.sha256(
            json.dumps(t.to_wire(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        for t in trials
    ]


def inputs_digest(trials: List[TrialSpec]) -> str:
    return hashlib.sha256("".join(spec_hashes(trials)).encode("ascii")).hexdigest()


def results_digest(results: List[TrialResult]) -> str:
    """sha256 over the sorted ``TrialResult.to_json()`` of a repetition."""
    rows = sorted(
        json.dumps(r.to_json(), sort_keys=True) for r in results
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
