"""Performance instrumentation for the event core.

Every CMAP figure is a Monte-Carlo sweep of saturated-traffic trials, so
the cost that matters is the cost of one trial. The repo's measuring
instrument is the ruler (``BENCHMARK.json``, ``benchmarks/ruler/``); this
module holds the two probes it is built on:

* :class:`PerfRecorder` — totals the events executed and the wall seconds
  spent inside :meth:`Network.run` while installed with the
  :func:`recording` context manager; ``Network.run`` reports into whichever
  recorder is active. Recording is in-process only: trials fanned out to
  worker processes (``--jobs N``) execute their events in the workers.
* :func:`profile_figure` — cProfile one zero-argument callable and
  aggregate time and exact call counts **by subsystem layer** (engine /
  medium / radio / reception / fading / mac / experiments, ...);
  ``python -m repro.cli profile`` prints the result with
  :func:`format_profile_table`.

Both are observational: nothing here changes scheduling, RNG consumption,
or float arithmetic, so instrumented runs stay bit-identical to
uninstrumented ones (profiling adds wall-clock overhead, never a different
result).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional

#: Layers every profile reports, even when they recorded no time.
REQUIRED_LAYERS = (
    "engine",
    "medium",
    "radio",
    "reception",
    "fading",
    "mac",
    "experiments",
)


class PerfRecorder:
    """Event-core totals over every ``Network.run`` while installed."""

    def __init__(self) -> None:
        self.events = 0
        #: Wall seconds spent inside the event loop itself.
        self.run_wall_seconds = 0.0

    def add(self, events: int, wall_seconds: float) -> None:
        self.events += events
        self.run_wall_seconds += wall_seconds


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
# Subsystem profiler (cli profile, the ruler's call counts)
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

    Per layer the result reports *self* seconds (exclusive time of the
    layer's own functions), *called* seconds (time inside the non-repro
    callees cProfile records — ``math`` transcendentals, stdlib — attributed
    to the repro layer that called them via the profiler's caller edges),
    their sum, the fraction of total profiled time, the exact number of
    calls into the layer's own functions, and the layer's costliest
    functions. numpy's Cython methods (``Generator.random()``) and ctypes
    calls record no event: their time is the caller's self time.
    Self/called seconds partition the total, so fractions sum to ~1.0
    across layers plus the ``other`` bucket. The profiler is uninstalled
    even when ``fn`` raises.
    """
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        fn()
    finally:
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
        "layers": layers,
    }


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
