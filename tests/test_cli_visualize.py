"""Tests for the CLI entry point and the ASCII floor visualisation."""

import pytest

from repro.cli import ALIASES, FIGURE_TARGETS, FIGURES, main, _scale
from repro.experiments.runners import SWEEP_BUILDERS
from repro.net.testbed import Testbed, TestbedConfig
from repro.net.topology import FloorPlan
from repro.net.visualize import render_floor, render_link


@pytest.fixture(scope="module")
def small_testbed():
    return Testbed(seed=1, config=TestbedConfig(num_nodes=12, floor=FloorPlan(120, 60)))


class TestVisualize:
    def test_floor_contains_all_node_labels(self, small_testbed):
        text = render_floor(small_testbed, width=100)
        for node_id in small_testbed.node_ids:
            assert str(node_id % 100) in text

    def test_header_line(self, small_testbed):
        text = render_floor(small_testbed)
        assert "120 m x 60 m floor, 12 nodes" in text.splitlines()[0]

    def test_regions_drawn(self, small_testbed):
        text = render_floor(small_testbed, show_regions=True)
        assert "|" in text and "-" in text

    def test_highlight(self, small_testbed):
        text = render_floor(small_testbed, highlight=[0])
        assert "[0]" in text

    def test_render_link_classification(self, small_testbed):
        text = render_link(small_testbed, 0, 1)
        assert "->" in text and "PRR" in text and "dBm" in text


class TestCli:
    def test_census_runs(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "connected directed pairs" in out

    def test_map_runs(self, capsys):
        assert main(["map", "--regions"]) == 0
        out = capsys.readouterr().out
        assert "floor" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["figXX"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig12", "--scale", "gigantic"])

    def test_scale_presets(self):
        assert _scale("smoke").configs == 3
        assert _scale("paper").configs == 50

    def test_every_paper_figure_has_a_target(self):
        # The CLI's figures are the registry plus the scale sweep; fig18 is
        # an alias of fig17 that ``all`` does not run twice.
        assert FIGURES == sorted(sorted(SWEEP_BUILDERS) + ["scale"])
        assert ALIASES == {"fig18": "fig17"}
        assert FIGURE_TARGETS == sorted(FIGURES + ["fig18"])
        for fig in ("calibration", "fig12", "fig13", "fig14", "fig15",
                    "fig16", "fig17", "fig19", "fig20", "mesh"):
            assert fig in SWEEP_BUILDERS

    @pytest.mark.parametrize("target", [
        ["fig17"],
        ["chaos", "--builder", "fig17", "--scale", "smoke"],
    ])
    def test_builder_without_a_scenario_exits_one_line(self, target):
        # Testbed 3's §5.6 regions hold no AP layout (HTTP: a 400).
        with pytest.raises(SystemExit) as exc:
            main(target + ["--seed", "3"])
        message = str(exc.value.code)
        assert message.startswith("builder 'fig17' found no scenario: ")
        assert "\n" not in message

    def test_calibration_target_end_to_end(self, capsys):
        assert main(["calibration", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "CMAP" in out and "802.11" in out
