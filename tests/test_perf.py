"""Tests for the perf instrumentation subsystem (repro/perf.py) and
``cli profile``."""

import sys

import pytest

from repro import perf
from repro.cli import main as cli_main
from repro.experiments.executor import run_trial
from repro.experiments.spec import MacSpec, TrialSpec
from repro.net.testbed import Testbed, TestbedConfig
from repro.net.topology import FloorPlan
from repro.network import Network, cmap_factory


def small_testbed() -> Testbed:
    return Testbed(seed=3, config=TestbedConfig(num_nodes=6, floor=FloorPlan(60, 30)))


class TestPerfRecorder:
    def test_accumulates_samples(self):
        rec = perf.PerfRecorder()
        rec.add(100, 0.5)
        rec.add(50, 0.25)
        assert rec.events == 150
        assert rec.run_wall_seconds == 0.75

    def test_recording_installs_and_restores(self):
        assert perf.active_recorder() is None
        with perf.recording() as rec:
            assert perf.active_recorder() is rec
            with perf.recording() as inner:
                assert perf.active_recorder() is inner
            assert perf.active_recorder() is rec
        assert perf.active_recorder() is None

    def test_network_run_reports_into_active_recorder(self):
        with perf.recording() as rec:
            net = Network(small_testbed())
            net.add_node(0, cmap_factory())
            net.add_node(1, cmap_factory())
            net.add_saturated_flow(0, 1)
            net.run(duration=0.5, warmup=0.1)
            assert rec.events == net.sim.events_processed
            assert rec.run_wall_seconds > 0.0

    def test_instrumentation_is_observational(self):
        """A recorded run delivers the same bytes as an unrecorded one."""
        testbed = small_testbed()

        def run_once():
            net = Network(testbed, run_seed=2)
            net.add_node(0, cmap_factory())
            net.add_node(1, cmap_factory())
            net.add_saturated_flow(0, 1)
            res = net.run(duration=0.6, warmup=0.2)
            return res.flow_mbps(0, 1), net.sim.events_processed

        plain = run_once()
        with perf.recording():
            recorded = run_once()
        assert plain == recorded


# ----------------------------------------------------------------------
# profile_figure: what the ruler's per-layer metrics and calls_per_trial
# are built on
# ----------------------------------------------------------------------
SPEC = TrialSpec(
    trial_id="perf/cmap",
    nodes=(0, 1, 2, 3),
    flows=((0, 1), (2, 3)),
    mac=MacSpec.of("cmap"),
    run_seed=1,
    duration=0.5,
    warmup=0.1,
)


@pytest.fixture(scope="module")
def trial_profiles():
    """An unprofiled run (which also fills the lazy tables), then two
    profiled runs of the same trial."""
    testbed = small_testbed()
    plain = run_trial(testbed, SPEC)
    profiled = []
    profiles = []
    for _ in range(2):
        profiles.append(
            perf.profile_figure(
                "trial", lambda: profiled.append(run_trial(testbed, SPEC))
            )
        )
    return plain, profiled, profiles


class TestProfileFigure:
    def test_uninstalls_profiler_when_fn_raises(self):
        with pytest.raises(ZeroDivisionError):
            perf.profile_figure("x", lambda: 1 / 0)
        assert sys.getprofile() is None

    def test_reports_every_required_layer(self, trial_profiles):
        _, _, profiles = trial_profiles
        for profile in profiles:
            assert set(perf.REQUIRED_LAYERS) <= set(profile["layers"])
            assert profile["layers"]["mac"]["calls"] > 0

    def test_fractions_partition_the_profiled_time(self, trial_profiles):
        _, _, profiles = trial_profiles
        for profile in profiles:
            fractions = [e["fraction"] for e in profile["layers"].values()]
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert 0.90 <= sum(fractions) <= 1.05

    def test_call_counts_repeat_exactly(self, trial_profiles):
        _, _, (first, second) = trial_profiles
        calls = [
            {name: e["calls"] for name, e in p["layers"].items()}
            for p in (first, second)
        ]
        assert calls[0] == calls[1]

    def test_profiled_result_equals_unprofiled(self, trial_profiles):
        plain, profiled, _ = trial_profiles
        for result in profiled:
            assert result.to_json() == plain.to_json()


class TestCliProfile:
    def test_prints_the_layer_table(self, capsys):
        assert cli_main(["profile", "--figures", "calibration"]) == 0
        out = capsys.readouterr().out
        assert "=== profile calibration" in out
        assert "frac" in out
        for layer in perf.REQUIRED_LAYERS:
            assert f"  {layer} " in out

    def test_unknown_figure_exits_with_one_line_message(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", "--figures", "fig99"])
        message = str(exc.value)
        assert message.startswith("unknown figure 'fig99'")
        assert "\n" not in message

    def test_bench_target_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench"])
        assert exc.value.code == 2  # argparse: invalid choice
