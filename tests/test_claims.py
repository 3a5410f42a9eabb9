"""The paper-claims table (:mod:`repro.experiments.claims`) and ``cli claims``.

The headline figures' rows are asserted here at :data:`CLAIMS_SCALE` with
seed 1, as ``cli claims`` runs them; ``cli claims`` checks every row.
"""

import math
import re
from operator import attrgetter
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments import claims
from repro.experiments.claims import CLAIMS, EXPERIMENTS, Claim
from repro.experiments.runners import SWEEP_BUILDERS, ExperimentScale, PairCdfResult
from repro.net.testbed import Testbed

HEADLINE = [c for c in CLAIMS if c.experiment in ("fig12", "fig13", "fig15")]


@pytest.fixture(scope="module")
def measured():
    return dict(claims.evaluate(HEADLINE, Testbed(seed=1), seed=1))


def _id(claim):
    return re.sub(r"\W+", "_", f"{claim.experiment} {claim.name}").strip("_")


@pytest.mark.parametrize("claim", HEADLINE, ids=_id)
def test_headline_claim_holds(claim, measured):
    value = measured[claim]
    assert claim.holds(value), claims.format_row(claim, value)


class TestTable:
    def test_every_experiment_has_rows_and_rows_are_unique(self):
        assert {c.experiment for c in CLAIMS} == set(EXPERIMENTS)
        keys = [(c.experiment, c.name) for c in CLAIMS]
        assert len(keys) == len(set(keys))

    def test_every_experiment_but_robustness_is_a_registry_entry(self):
        assert set(EXPERIMENTS) - set(SWEEP_BUILDERS) == {"robustness"}
        assert set(SWEEP_BUILDERS) <= set(EXPERIMENTS)

    def test_edges_are_strict_and_at_least_is_one_float_below(self):
        strict = Claim("e", "n", "§0", None, float, lo=1.0, hi=2.0)
        assert not strict.holds(1.0) and strict.holds(1.5) and not strict.holds(2.0)
        closed = Claim("e", "n", "§0", None, float, claims._ge(1.0), claims._le(2.0))
        assert closed.holds(1.0) and closed.holds(2.0)
        assert not closed.holds(0.9999999999) and not closed.holds(float("nan"))


def _row(experiment, name):
    (claim,) = [c for c in CLAIMS if (c.experiment, c.name) == (experiment, name)]
    return claim


class TestStatistics:
    """Each row reads what the check it replaced read."""

    def test_a_zero_baseline_fails_unless_the_protocol_moved(self):
        assert claims._ratio(3.0, 0.0) == math.inf
        assert math.isnan(claims._ratio(0.0, 0.0))
        row = _row("fig13", "CMAP / CS-on median")
        idle = PairCdfResult("fig13", [], {"cmap": [0.0], "cs_on": [0.0]}, {})
        assert not row.holds(row.statistic(idle))
        moving = PairCdfResult("fig13", [], {"cmap": [1.0], "cs_on": [0.0]}, {})
        assert row.holds(row.statistic(moving))

    def test_a_zero_ratio_inside_a_loop_fails_the_row(self):
        row = _row("fig20", "lowest median gain over rates")
        by_rate = {
            m: PairCdfResult("fig20", [], {"cmap": [c], "cs_on": [s]}, {})
            for m, c, s in ((6, 0.0, 0.0), (12, 4.0, 2.0))
        }
        assert not row.holds(row.statistic(SimpleNamespace(by_rate=by_rate)))

    def test_fig16_fig18_fig19_use_the_interpolated_median(self):
        # Even-length samples, where the upper median would pass.
        ht = SimpleNamespace(inrange_either=[0.8, 0.9], inrange_header=[0.7, 0.8])
        assert _row("fig16", "in range: either median").statistic(ht) == pytest.approx(0.85)
        ap = SimpleNamespace(per_sender={"cs_on": [2.0, 3.0], "cmap": [2.0, 3.0]})
        gain = _row("fig17", "per-sender median CMAP / CS-on")
        assert gain.statistic(ap) == 1.0 and not gain.holds(1.0)
        assert _row("fig17", "CS-on per-sender median Mb/s").statistic(ap) == 2.5
        density = SimpleNamespace(rates_by_n={2: [0.9], 5: [0.4, 0.6]})
        assert _row("fig19", "median at the largest N").statistic(density) == 0.5

    def test_in_range_runs_must_measure_out_of_range_may_not(self):
        empty = SimpleNamespace(inrange_either=[], inrange_header=[],
                                outofrange_either=[], outofrange_header=[])
        inrange = _row("fig16", "in range: either - header")
        outofrange = _row("fig16", "out of range: either - header")
        assert not inrange.holds(inrange.statistic(empty))
        assert outofrange.holds(outofrange.statistic(empty))


class TestCli:
    PASSING = Claim("calibration", "CMAP Mb/s > 0", "§4.2", 5.04,
                    attrgetter("cmap_mbps"), lo=0.0)
    FAILING = Claim("calibration", "CMAP Mb/s < 0", "§4.2", 5.04,
                    attrgetter("cmap_mbps"), hi=0.0)

    def test_one_line_per_row_and_exit_status(self, monkeypatch, capsys):
        monkeypatch.setattr(claims, "CLAIMS", (self.PASSING, self.FAILING))
        assert main(["claims"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].endswith(" ok") and lines[1].endswith(" FAIL")

        monkeypatch.setattr(claims, "CLAIMS", (self.PASSING,))
        assert main(["claims"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_jobs_prints_what_the_serial_run_prints(self, monkeypatch, capsys):
        rows = [c for c in CLAIMS if c.experiment in ("offline_map", "related_work")]
        monkeypatch.setattr(claims, "CLAIMS", tuple(rows))
        monkeypatch.setattr(
            claims, "CLAIMS_SCALE", ExperimentScale(configs=1, duration=1.0, warmup=0.5)
        )
        main(["claims"])
        serial = capsys.readouterr().out
        main(["claims", "--jobs", "2"])
        assert capsys.readouterr().out == serial
        assert len(serial.splitlines()) == len(rows)

    @pytest.mark.parametrize(
        "flags",
        [["--scale", "paper"], ["--jobs", "2", "--scale", "quick"],
         ["--out", "r.json", "--resume"]],
    )
    def test_scale_jobs_and_store_exit_with_one_line(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["claims", *flags])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "CLAIMS_SCALE" in message
