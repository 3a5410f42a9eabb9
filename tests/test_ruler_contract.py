"""The ruler's traced pass wraps service methods by name: keep the names.

``benchmarks/ruler/sweepbench.py::_install_spans`` wraps coordinator,
queue, run-table, store and client methods with ``getattr``/``setattr``,
and names a span's trial from the wrapped call's arguments. The plain test
run drives the ruler untraced, so without this file a renamed or removed
method, or a changed call shape, would fail only in the traced ruler
smokes.
"""

import os
import types

import pytest

from repro.experiments.spec import MacSpec, TrialResult, TrialSpec
from repro.service.coordinator import Coordinator
from repro.service.jobs import DONE, new_job

RULER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks", "ruler"
)


@pytest.fixture
def ruler(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(RULER))
    import spans
    import sweepbench

    return types.SimpleNamespace(spans=spans, sweepbench=sweepbench)


def test_every_wrapped_method_exists_and_is_restored(ruler):
    before = Coordinator._run_job
    rec = ruler.spans.Recorder()
    try:
        ruler.sweepbench._install_spans(rec)
        assert Coordinator._run_job is not before
    finally:
        rec.unwrap_all()
    assert Coordinator._run_job is before


def test_wrapped_calls_keep_the_shapes_the_spans_read(
    ruler, tmp_path, monkeypatch
):
    """One two-trial job through an in-process coordinator with the spans
    installed: the run-table, store and record spans name their trials,
    which they can only do while the coordinator calls them positionally
    (``trial_status(experiment, trial_id, fingerprint)``,
    ``record_trial(experiment, result, **kw)``)."""

    def fake_run_trial(testbed, trial):
        return TrialResult(trial_id=trial.trial_id, flow_mbps={(0, 1): 1.0},
                           fingerprint=trial.fingerprint())

    monkeypatch.setattr("repro.service.worker.run_trial", fake_run_trial)
    co = Coordinator(
        str(tmp_path / "svc"),
        testbed_factory=lambda seed: types.SimpleNamespace(seed=seed),
    )
    trials = [
        TrialSpec(f"t/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"), 0, 4.0, 1.0)
        for i in range(2)
    ]
    rec = ruler.spans.Recorder()
    try:
        ruler.sweepbench._install_spans(rec)
        co.submit(new_job("shapes", trials))
        assert co.run_once().state == DONE
    finally:
        rec.unwrap_all()
        co.runtable.close()
    traced = {}
    for span in rec.spans:
        traced.setdefault(span.name, set()).add(span.trace)
    for name in ("RunTable.trial_status", "RunTable.record_trial",
                 "ResultStore.get", "ResultStore.has", "ResultStore.put",
                 "Coordinator.record_remote_result"):
        assert traced.get(name) == {"t/0", "t/1"}, name
    for name in ("Coordinator.submit", "Coordinator._run_job",
                 "InMemoryJobQueue.verify", "RunTable.upsert_job",
                 "ResultStore.save"):
        assert name in traced, name
