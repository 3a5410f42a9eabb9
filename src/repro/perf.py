"""Performance instrumentation for the event core.

Every CMAP figure is a Monte-Carlo sweep of 50-node saturated-traffic runs,
so the metric that matters for the ROADMAP's "as fast as the hardware
allows" goal is *events per second of wall time* through the discrete-event
core. This module provides:

* :class:`PerfRecorder` — collects one sample per :meth:`Network.run`
  (events executed, simulated seconds, wall seconds) while active. The
  recorder is installed with the :func:`recording` context manager;
  ``Network.run`` reports into whichever recorder is active. Recording is
  in-process only: trials fanned out to worker processes (``--jobs N``)
  execute their events in the workers, so benchmark runs use the serial
  backend.
* :func:`bench_figure` — time one figure run end-to-end and summarise it.
* :func:`write_bench_file` / :func:`load_bench_file` — persist ``BENCH_*.json``
  trajectory points (wall seconds, events, events/sec, trials/sec) and
  compare against a recorded baseline.
* :func:`profile_figure` / :func:`write_profile_file` — cProfile one figure
  run and aggregate time **by subsystem layer** (engine / medium / radio /
  reception / fading / mac / experiments, ...), emitting a
  ``PROFILE_*.json`` attribution breakdown so every perf PR starts from
  measurement instead of guesswork (``python -m repro.cli profile``).

The numbers are observational: nothing here changes scheduling, RNG
consumption, or float arithmetic, so instrumented runs stay bit-identical
to uninstrumented ones (profiling adds wall-clock overhead, never a
different result).
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

#: Schema tag written into every BENCH file, bumped on layout changes.
BENCH_SCHEMA = 1

#: Schema tag written into every PROFILE file, bumped on layout changes.
#: Bumped to 2 when per-figure ``mac_share`` was added (PR 9).
PROFILE_SCHEMA = 2

#: Layers every PROFILE payload must report (CI asserts these keys exist).
REQUIRED_LAYERS = (
    "engine",
    "medium",
    "radio",
    "reception",
    "fading",
    "mac",
    "experiments",
)

#: Default location of the recorded baseline (committed to the repo so the
#: perf trajectory has a fixed origin to compare against).
DEFAULT_BASELINE = os.path.join("benchmarks", "BENCH_baseline.json")


@dataclass
class RunSample:
    """One ``Network.run``'s worth of event-core work."""

    events: int
    sim_seconds: float
    wall_seconds: float


class PerfRecorder:
    """Accumulates :class:`RunSample` entries while installed."""

    def __init__(self) -> None:
        self.samples: List[RunSample] = []

    def add(self, events: int, sim_seconds: float, wall_seconds: float) -> None:
        self.samples.append(RunSample(events, sim_seconds, wall_seconds))

    # ------------------------------------------------------------------
    @property
    def runs(self) -> int:
        return len(self.samples)

    @property
    def events(self) -> int:
        return sum(s.events for s in self.samples)

    @property
    def sim_seconds(self) -> float:
        return sum(s.sim_seconds for s in self.samples)

    @property
    def run_wall_seconds(self) -> float:
        """Wall time spent inside the event loop itself."""
        return sum(s.wall_seconds for s in self.samples)


_active: Optional[PerfRecorder] = None


def active_recorder() -> Optional[PerfRecorder]:
    """The currently installed recorder, or None (the common case)."""
    return _active


@contextmanager
def recording():
    """Install a fresh :class:`PerfRecorder` for the duration of the block."""
    global _active
    recorder = PerfRecorder()
    previous, _active = _active, recorder
    try:
        yield recorder
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Figure benchmarking
# ----------------------------------------------------------------------
@dataclass
class FigureBench:
    """Timing summary of one figure regeneration."""

    figure: str
    wall_seconds: float
    #: Wall seconds spent inside Network.run (event core only).
    run_wall_seconds: float
    events: int
    trials: int
    sim_seconds: float
    events_per_sec: float
    core_events_per_sec: float
    trials_per_sec: float


def summarize_recorder(
    name: str, recorder: PerfRecorder, wall_seconds: float
) -> FigureBench:
    """Fold a recorder's samples plus a wall-clock reading into a summary."""
    events = recorder.events
    trials = recorder.runs
    run_wall = recorder.run_wall_seconds
    return FigureBench(
        figure=name,
        wall_seconds=wall_seconds,
        run_wall_seconds=run_wall,
        events=events,
        trials=trials,
        sim_seconds=recorder.sim_seconds,
        events_per_sec=events / wall_seconds if wall_seconds > 0 else 0.0,
        core_events_per_sec=events / run_wall if run_wall > 0 else 0.0,
        trials_per_sec=trials / wall_seconds if wall_seconds > 0 else 0.0,
    )


def bench_figure(name: str, fn: Callable[[], object], repeat: int = 1) -> FigureBench:
    """Run ``fn`` (a zero-arg figure runner) under timing instrumentation.

    With ``repeat > 1`` the figure is regenerated that many times and the
    fastest run is reported — the standard defence against scheduler noise
    on shared machines (the simulation itself is deterministic, so only the
    wall clock varies between runs).
    """
    best: Optional[FigureBench] = None
    for _ in range(max(1, repeat)):
        with recording() as recorder:
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
        bench = summarize_recorder(name, recorder, wall)
        if best is None or bench.wall_seconds < best.wall_seconds:
            best = bench
    return best


# ----------------------------------------------------------------------
# BENCH_*.json persistence
# ----------------------------------------------------------------------
def bench_payload(
    figures: List[FigureBench],
    scale: str,
    seed: int,
    baseline: Optional[dict] = None,
) -> dict:
    """Assemble the JSON payload for one benchmark session."""
    payload: dict = {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": scale,
        "seed": seed,
        "figures": {b.figure: asdict(b) for b in figures},
    }
    if baseline is not None:
        payload["baseline"] = {
            "created_utc": baseline.get("created_utc"),
            "figures": baseline.get("figures", {}),
        }
        speedups = {}
        for b in figures:
            ref = baseline.get("figures", {}).get(b.figure)
            if ref and ref.get("events_per_sec"):
                speedups[b.figure] = b.events_per_sec / ref["events_per_sec"]
        payload["speedup_events_per_sec"] = speedups
    return payload


def write_bench_file(
    payload: dict, out_dir: str = ".", name: Optional[str] = None
) -> str:
    """Write a ``BENCH_*.json`` file and return its path."""
    if name is None:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        name = f"BENCH_{payload['scale']}_{stamp}.json"
    path = os.path.join(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_file(path: str) -> Optional[dict]:
    """Load a BENCH file, returning None if it does not exist."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Subsystem profiler (cli profile)
# ----------------------------------------------------------------------
#: Module-path fragment -> layer name; first match wins, so more specific
#: fragments come first. Paths use "/" after normalisation.
_LAYER_PATTERNS = (
    ("repro/kernels/", "kernels"),
    ("repro/sim/", "engine"),
    ("repro/phy/medium", "medium"),
    ("repro/phy/radio", "radio"),
    ("repro/phy/reception", "reception"),
    ("repro/phy/modulation", "reception"),  # BER/chunk scoring
    ("repro/phy/fading", "fading"),
    ("repro/phy/", "phy_other"),
    ("repro/mac/", "mac"),
    ("repro/core/", "mac"),  # CMAP conflict-map machinery
    ("repro/experiments/", "experiments"),
    ("repro/analysis/", "experiments"),
    ("repro/net/", "network"),
    ("repro/traffic/", "network"),
    ("repro/network", "network"),
    ("repro/node", "network"),
    ("repro/util/", "util"),
)


def classify_layer(filename: str) -> Optional[str]:
    """Map a profiled function's filename to a subsystem layer.

    Returns None for functions outside the repro package (numpy, stdlib,
    builtins); their time is attributed to the repro layer that *called*
    them when the call graph allows, else to ``other``.
    """
    normalized = filename.replace(os.sep, "/")
    for fragment, layer in _LAYER_PATTERNS:
        if fragment in normalized:
            return layer
    return None


def _function_label(func_key) -> str:
    filename, lineno, name = func_key
    if filename in ("~", ""):
        return name  # builtins print as "<built-in method ...>"
    return f"{os.path.basename(filename)}:{lineno}({name})"


def profile_figure(name: str, fn: Callable[[], object]) -> dict:
    """Run ``fn`` under cProfile and attribute time by subsystem layer.

    Per layer the payload reports *self* seconds (exclusive time of the
    layer's own functions), *called* seconds (time spent inside non-repro
    callees — numpy RNG draws, math transcendentals — attributed to the
    repro layer that called them via the profiler's caller edges), their
    sum, the fraction of total profiled time, and the layer's costliest
    functions. Self/called seconds partition the total, so fractions sum
    to ~1.0 across layers plus the ``other`` bucket.
    """
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    fn()
    profiler.disable()
    wall = time.perf_counter() - t0
    stats = pstats.Stats(profiler).stats

    layers: Dict[str, dict] = {}

    def bucket(layer: str) -> dict:
        entry = layers.get(layer)
        if entry is None:
            entry = layers[layer] = {
                "self_seconds": 0.0,
                "called_seconds": 0.0,
                "calls": 0,
                "top": [],
            }
        return entry

    total = 0.0
    for func_key, (cc, nc, tt, ct, callers) in stats.items():
        total += tt
        layer = classify_layer(func_key[0])
        if layer is not None:
            entry = bucket(layer)
            entry["self_seconds"] += tt
            entry["calls"] += nc
            entry["top"].append((tt, _function_label(func_key)))
            continue
        # External function (numpy/stdlib/builtin): attribute its exclusive
        # time to the repro layers that called it, using the per-caller
        # edge times cProfile records. Edges from non-repro callers fall
        # into "other".
        if not callers:
            bucket("other")["self_seconds"] += tt
            continue
        edge_total = 0.0
        for caller_key, (ecc, enc, ett, ect) in callers.items():
            edge_total += ett
            caller_layer = classify_layer(caller_key[0]) or "other"
            entry = bucket(caller_layer)
            entry["called_seconds"] += ett
            entry["top"].append(
                (ett, f"{_function_label(func_key)} <- {_function_label(caller_key)}")
            )
        # Edge times can undercount tt (recursion, bootstrap frames); keep
        # the remainder visible instead of silently dropping it.
        if tt - edge_total > 0.0:
            bucket("other")["self_seconds"] += tt - edge_total

    for required in REQUIRED_LAYERS:
        bucket(required)
    for layer, entry in layers.items():
        entry["seconds"] = entry["self_seconds"] + entry["called_seconds"]
        entry["fraction"] = entry["seconds"] / total if total > 0 else 0.0
        entry["top"] = [
            {"seconds": round(seconds, 4), "function": label}
            for seconds, label in sorted(entry["top"], reverse=True)[:5]
            if seconds > 0.0
        ]
        entry["self_seconds"] = round(entry["self_seconds"], 4)
        entry["called_seconds"] = round(entry["called_seconds"], 4)
        entry["seconds"] = round(entry["seconds"], 4)
        entry["fraction"] = round(entry["fraction"], 4)

    return {
        "figure": name,
        "wall_seconds": round(wall, 3),
        "profiled_seconds": round(total, 3),
        # Headline number for MAC-focused perf PRs: the fraction of profiled
        # time spent in the MAC layer (repro/mac/ + repro/core/). Duplicated
        # out of ``layers`` so trajectory tooling can diff it without
        # digging through the per-layer breakdown.
        "mac_share": layers["mac"]["fraction"],
        "layers": layers,
    }


def profile_payload(profiles: List[dict], scale: str, seed: int) -> dict:
    """Assemble the JSON payload for one profiling session."""
    return {
        "schema": PROFILE_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": scale,
        "seed": seed,
        "figures": {p["figure"]: p for p in profiles},
    }


def write_profile_file(
    payload: dict, out_dir: str = ".", name: Optional[str] = None
) -> str:
    """Write a ``PROFILE_*.json`` file and return its path."""
    if name is None:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        name = f"PROFILE_{payload['scale']}_{stamp}.json"
    path = os.path.join(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_profile_table(profile: dict) -> str:
    """Human-readable per-layer breakdown printed by ``cli profile``."""
    lines = [
        f"{profile['figure']}: {profile['wall_seconds']:.2f}s wall, "
        f"{profile['profiled_seconds']:.2f}s profiled",
        f"  {'layer':<12} {'self s':>8} {'called s':>9} {'total s':>8} "
        f"{'frac':>6}",
    ]
    ordered = sorted(
        profile["layers"].items(),
        key=lambda item: item[1]["seconds"],
        reverse=True,
    )
    for layer, entry in ordered:
        lines.append(
            f"  {layer:<12} {entry['self_seconds']:>8.2f} "
            f"{entry['called_seconds']:>9.2f} {entry['seconds']:>8.2f} "
            f"{entry['fraction']:>5.1%}"
        )
        if entry["top"]:
            hot = entry["top"][0]
            lines.append(f"    hottest: {hot['function']} ({hot['seconds']}s)")
    return "\n".join(lines)


def format_bench_table(
    figures: List[FigureBench], speedups: Optional[Dict[str, float]] = None
) -> str:
    """Human-readable summary printed by ``repro.cli bench``."""
    lines = [
        f"{'figure':<12} {'wall s':>8} {'events':>10} {'events/s':>10} "
        f"{'trials':>7} {'trials/s':>9}" + ("  speedup" if speedups else "")
    ]
    for b in figures:
        row = (
            f"{b.figure:<12} {b.wall_seconds:>8.2f} {b.events:>10d} "
            f"{b.events_per_sec:>10.0f} {b.trials:>7d} {b.trials_per_sec:>9.2f}"
        )
        if speedups and b.figure in speedups:
            row += f"  {speedups[b.figure]:.2f}x"
        lines.append(row)
    return "\n".join(lines)
