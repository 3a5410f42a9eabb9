"""Census of the cyclic garbage collector over a service sweep.

A finished trial's world (radios, MACs, their bound callbacks and timers,
the fan-out closures, the engine heap) is freed by refcounting once
``run_trial`` closes its network (DESIGN.md "Performance"); only what the
service itself leaves in reference cycles should reach the cyclic GC. This
script counts what does. It runs the ruler's 240 sweep specs three times
(720 trials, three jobs) through one in-process ``Coordinator`` — the
``sweep_local`` path: each job is leased and run by the coordinator's
in-process ``Worker`` — with a ``gc.callbacks`` hook installed, then
forces one full collection so every cycle the trials left behind is
counted. It prints, for the sweep:

* collections per generation (the run's own, then the final forced one);
* objects the cyclic GC freed per trial (the final collection included);
* GC wall milliseconds per trial.

Exits 1 when the GC freed more than ``MAX_FREED_PER_TRIAL`` objects per
trial: a trial whose world outlives it by a reference cycle frees hundreds.
Counts gate; the milliseconds are this host's and only reported.

Usage::

    python benchmarks/gc_census.py
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "benchmarks", "ruler"))

from repro.service.coordinator import Coordinator
from repro.service.jobs import DONE, new_job

import workloads

ROUNDS = 3
SEED = 1
#: Objects the cyclic GC may free per trial before the census fails.
MAX_FREED_PER_TRIAL = 20


class GcTally:
    """A ``gc.callbacks`` hook: collections, objects freed, wall time."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.collected = 0
        self.seconds = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._t0
        self.collections[info["generation"]] += 1
        self.collected += info["collected"]


def census() -> dict:
    testbed, specs, _timings = workloads.build_sweep(SEED)
    data_dir = tempfile.mkdtemp(prefix="gc-census-")
    co = Coordinator(data_dir, testbed_factory=lambda seed: testbed)
    run, final = GcTally(), GcTally()
    try:
        gc.collect()
        gc.callbacks.append(run)
        try:
            for index in range(ROUNDS):
                co.submit(new_job(f"gc-census-{index}", specs))
                job = co.run_once()
                if job is None or job.state != DONE or job.completed != len(specs):
                    raise RuntimeError(f"census job {index} did not finish: {job}")
        finally:
            gc.callbacks.remove(run)
        gc.callbacks.append(final)
        try:
            gc.collect()
        finally:
            gc.callbacks.remove(final)
    finally:
        co.runtable.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    trials = ROUNDS * len(specs)
    return {
        "trials": trials,
        "collections": run.collections,
        "final_collected": final.collected,
        "freed_per_trial": (run.collected + final.collected) / trials,
        "gc_ms_per_trial": (run.seconds + final.seconds) * 1e3 / trials,
    }


def main() -> int:
    out = census()
    gen0, gen1, gen2 = out["collections"]
    print(f"trials: {out['trials']} (the ruler's sweep specs x {ROUNDS})")
    print(
        f"collections: gen0 {gen0}  gen1 {gen1}  gen2 {gen2}"
        f"  (+1 forced full collection, freed {out['final_collected']})"
    )
    print(f"freed per trial: {out['freed_per_trial']:.1f} objects")
    print(f"gc per trial: {out['gc_ms_per_trial']:.3f} ms")
    if out["freed_per_trial"] > MAX_FREED_PER_TRIAL:
        print(
            f"FAIL: the cyclic GC freed {out['freed_per_trial']:.1f} objects "
            f"per trial (limit {MAX_FREED_PER_TRIAL}): something a trial "
            "builds outlives it in a reference cycle"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
