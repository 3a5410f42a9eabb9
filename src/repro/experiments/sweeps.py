"""Parameter sweeps: does the headline result survive channel assumptions?

A reproduction on a simulated substrate owes the reader a sensitivity
analysis: the paper's 2x exposed-terminal gain should not hinge on one lucky
choice of path-loss exponent, shadowing depth, or LOS fraction. The sweep
utilities rebuild the testbed per grid point, re-select scenarios under the
same Fig. 11 constraints, and re-measure — so the knob varies the *world*,
not just the protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

from repro.experiments.executor import run_experiment
from repro.experiments.runners import ExperimentScale, build_exposed_terminals
from repro.experiments.scenarios import ScenarioError
from repro.net.testbed import Testbed, TestbedConfig


@dataclass
class SweepPoint:
    """One grid point's outcome."""

    overrides: Dict[str, object]
    cmap_median: float
    cs_on_median: float
    configs_found: int
    error: Optional[str] = None

    @property
    def gain(self) -> float:
        if self.cs_on_median <= 0:
            return float("nan")
        return self.cmap_median / self.cs_on_median


def sweep_testbed_parameters(
    grid: Dict[str, Iterable],
    scale: Optional[ExperimentScale] = None,
    base_config: Optional[TestbedConfig] = None,
    seed: int = 1,
) -> List[SweepPoint]:
    """Run the exposed-terminal experiment across a testbed parameter grid.

    ``grid`` maps :class:`TestbedConfig` field names to value lists; the
    sweep covers the cartesian product. Grid points whose testbed cannot
    supply exposed-terminal configurations are recorded with an ``error``
    instead of failing the sweep — that, too, is information (e.g. with
    ``p_los=0`` there may be no strong links at all).
    """
    scale = scale or ExperimentScale.smoke()
    base = base_config or TestbedConfig()
    names = sorted(grid)
    points: List[SweepPoint] = []
    for values in itertools.product(*(list(grid[n]) for n in names)):
        overrides = dict(zip(names, values))
        config = replace(base, **overrides)
        testbed = Testbed(seed=seed, config=config)
        try:
            spec = build_exposed_terminals(testbed, scale, include_win1=False)
            result = run_experiment(spec, testbed)
            points.append(
                SweepPoint(
                    overrides=overrides,
                    cmap_median=result.median("cmap"),
                    cs_on_median=result.median("cs_on"),
                    configs_found=len(result.configs),
                )
            )
        except ScenarioError as exc:
            points.append(
                SweepPoint(
                    overrides=overrides,
                    cmap_median=0.0,
                    cs_on_median=0.0,
                    configs_found=0,
                    error=str(exc),
                )
            )
    return points


def render_sweep(points: List[SweepPoint]) -> str:
    """Text table of a sweep's outcomes."""
    if not points:
        return "(empty sweep)"
    names = sorted(points[0].overrides)
    head = "  ".join(f"{n:>18}" for n in names)
    lines = [f"{head}  {'cs_on':>7}  {'cmap':>7}  {'gain':>6}  configs"]
    for p in points:
        row = "  ".join(f"{str(p.overrides[n]):>18}" for n in names)
        if p.error:
            lines.append(f"{row}  {'—':>7}  {'—':>7}  {'—':>6}  {p.error}")
        else:
            lines.append(
                f"{row}  {p.cs_on_median:>7.2f}  {p.cmap_median:>7.2f}"
                f"  {p.gain:>5.2f}x  {p.configs_found}"
            )
    return "\n".join(lines)
