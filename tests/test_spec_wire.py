"""Spec wire-format round-trip: the contract of the HTTP submit path.

A sweep submitted over the wire must hit the same ResultStore cache
entries — and produce bit-identical results — as the same spec built
in-process. That holds iff ``TrialSpec.to_wire`` -> JSON ->
``TrialSpec.from_wire`` returns a spec that is *equal* and
*fingerprint-identical* to the original, for every registered builder.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.runners import SWEEP_BUILDERS, ExperimentScale
from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    MobilitySpec,
    TrialSpec,
    experiment_from_wire,
    experiment_to_wire,
)
from repro.net.testbed import Testbed


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def smoke():
    return ExperimentScale.smoke()


def roundtrip(trial: TrialSpec) -> TrialSpec:
    return TrialSpec.from_wire(json.loads(json.dumps(trial.to_wire())))


class TestEveryRegisteredBuilder:
    @pytest.mark.parametrize("name", sorted(SWEEP_BUILDERS))
    def test_wire_roundtrip_equal_and_fingerprint_identical(
        self, name, testbed, smoke
    ):
        spec = SWEEP_BUILDERS[name](testbed, scale=smoke, seed=0)
        assert spec.trials, f"builder {name} produced no trials"
        for trial in spec.trials:
            clone = roundtrip(trial)
            assert clone == trial
            assert clone.fingerprint() == trial.fingerprint()

    @pytest.mark.parametrize("name", sorted(SWEEP_BUILDERS))
    def test_experiment_wire_roundtrip(self, name, testbed, smoke):
        spec = SWEEP_BUILDERS[name](testbed, scale=smoke, seed=0)
        wire = json.loads(json.dumps(experiment_to_wire(spec)))
        back = experiment_from_wire(wire)
        assert back.name == spec.name
        assert back.trials == spec.trials


class TestAllOptionalFields:
    """The builders above exercise mobility (mobility), churn (churn),
    floors (none — scale sweep is off the registry), and measure (mesh);
    this pins the full-field case explicitly, floors included."""

    def test_fully_loaded_trial_roundtrips(self):
        trial = TrialSpec(
            trial_id="loaded/0",
            nodes=(3, 1, 4, 5),
            flows=((3, 1), (4, 5)),
            mac=MacSpec.of("cmap", nwindow=1, data_rate=12),
            run_seed=7,
            duration=8.5,
            warmup=2.0,
            measure=((3, 1),),
            track_tx=True,
            metrics=("concurrency", "fanout"),
            payload_bytes=512,
            mobility=MobilitySpec.of(
                "random_waypoint", nodes=(3,), speed_mps=1.5, step_interval=0.25
            ),
            churn=((4.0, "leave", 4), (6.0, "join", 4)),
            delivery_floor_dbm=-88.0,
            interference_floor_dbm=-96.0,
            preload="warm_start",
        )
        clone = roundtrip(trial)
        assert clone == trial
        assert clone.fingerprint() == trial.fingerprint()

    def test_defaults_stay_off_the_wire(self):
        trial = TrialSpec("d/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                          0, 4.0, 1.0)
        wire = trial.to_wire()
        for absent in ("measure", "track_tx", "metrics", "payload_bytes",
                       "mobility", "churn", "delivery_floor_dbm",
                       "interference_floor_dbm", "preload"):
            assert absent not in wire
        assert roundtrip(trial) == trial

    def test_preload_roundtrips_and_unset_keeps_the_old_fingerprint(self):
        plain = TrialSpec("p/0", (0, 1), ((0, 1),), MacSpec.of("cmap"),
                          0, 4.0, 1.0)
        # Pinned before TrialSpec.preload existed: stores written then
        # stay resumable.
        assert plain.fingerprint() == "f174ea9c3b1bde2d"
        for preload in ("offline", "warm_start"):
            trial = replace(plain, preload=preload)
            wire = json.loads(json.dumps(trial.to_wire()))
            assert wire["preload"] == preload
            assert TrialSpec.from_wire(wire) == trial
            assert TrialSpec.from_wire(wire).fingerprint() == trial.fingerprint()
            assert trial.fingerprint() != plain.fingerprint()

    def test_int_float_distinction_survives(self):
        # stable_hash hashes repr(), so 4 vs 4.0 in churn times or params
        # are different fingerprints; JSON must preserve the distinction.
        a = TrialSpec("t/0", (0, 1), ((0, 1),), MacSpec.of("dcf"), 0, 4.0,
                      1.0, churn=((4, "leave", 0),))
        b = TrialSpec("t/0", (0, 1), ((0, 1),), MacSpec.of("dcf"), 0, 4.0,
                      1.0, churn=((4.0, "leave", 0),))
        assert a.fingerprint() != b.fingerprint()
        assert roundtrip(a).fingerprint() == a.fingerprint()
        assert roundtrip(b).fingerprint() == b.fingerprint()


class TestWireRejections:
    def test_non_scalar_param_rejected(self):
        mac = MacSpec("cmap", (("rates", (6, 12)),))
        with pytest.raises(ValueError):
            mac.to_wire()

    def test_unknown_job_state_rejected(self):
        from repro.service.jobs import SweepJob

        trial = TrialSpec("x/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                          0, 4.0, 1.0)
        wire = SweepJob("j", "x", [trial]).to_wire()
        wire["state"] = "exploded"
        with pytest.raises(ValueError):
            SweepJob.from_wire(wire)


class TestExperimentWire:
    def test_reduce_is_identity(self):
        trial = TrialSpec("e/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                          0, 4.0, 1.0)
        spec = experiment_from_wire(
            experiment_to_wire(ExperimentSpec("e", [trial], lambda r: "folded"))
        )
        sentinel = [object()]
        assert spec.reduce(sentinel) == sentinel

    def test_duplicate_ids_still_rejected(self):
        trial = TrialSpec("e/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                          0, 4.0, 1.0)
        wire = {"name": "e", "trials": [trial.to_wire(), trial.to_wire()]}
        with pytest.raises(ValueError):
            experiment_from_wire(wire)
