"""Tests for the testbed-parameter sweep, :func:`repro.experiments.claims.robustness`.

Each test narrows :data:`~repro.experiments.claims.ROBUSTNESS_GRID` to the
worlds it needs.
"""

from repro.experiments import claims
from repro.experiments.runners import ExperimentScale
from repro.net.testbed import Testbed


def _sweep(monkeypatch, grid, scale):
    monkeypatch.setattr(claims, "ROBUSTNESS_GRID", grid)
    return claims.robustness(Testbed(seed=1), scale, seed=1)


class TestSweepExecution:
    def test_single_point_sweep_runs(self, monkeypatch):
        scale = ExperimentScale(configs=1, duration=3.0, warmup=1.0)
        points = _sweep(monkeypatch, {"path_loss_exponent": (3.3,)}, scale)
        assert list(points) == [(("path_loss_exponent", 3.3),)]
        (p,) = points.values()
        assert p is not None
        assert len(p.configs) == 1
        assert p.median("cmap") > 0 and p.median("cs_on") > 0
        assert claims._gain("cmap", "cs_on")(p) > 0
        assert claims._usable(points) == [p]

    def test_impossible_world_reports_error(self, monkeypatch):
        # Absurd path loss: no links at all, so no exposed-terminal pair.
        scale = ExperimentScale(configs=1, duration=3.0, warmup=1.0)
        points = _sweep(monkeypatch, {"path_loss_exponent": (8.0,)}, scale)
        assert points == {(("path_loss_exponent", 8.0),): None}
        assert claims._usable(points) == []

    def test_grid_is_cartesian_product(self, monkeypatch):
        scale = ExperimentScale(configs=1, duration=2.0, warmup=0.5)
        grid = {"path_loss_exponent": (3.2, 3.4), "p_los": (0.4,)}
        points = _sweep(monkeypatch, grid, scale)
        # Keys are the (field, value) pairs sorted by field name.
        assert list(points) == [
            (("p_los", 0.4), ("path_loss_exponent", 3.2)),
            (("p_los", 0.4), ("path_loss_exponent", 3.4)),
        ]
        assert claims._usable_beyond_half(points) == len(claims._usable(points)) - 1
