"""Coordinator scheduling: retries, preemption, cancellation, crash-resume.

Logic tests monkeypatch ``repro.service.worker.run_trial`` (the coordinator
runs its jobs through an in-process ``Worker``) with a scripted fake (and a
SimpleNamespace testbed), so they run in milliseconds; the bit-identical
and crash-resume acceptance tests execute real trials against a shared
Testbed.
"""

import contextlib
import os
import shutil
import threading
import time
import types

import pytest

from repro.analysis import stats
from repro.errors import StaleTokenError
from repro.experiments.executor import ResultStore, SerialBackend
from repro.experiments.runners import ExperimentScale, build_single_link_calibration
from repro.experiments.spec import MacSpec, TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.service import coordinator as coordinator_module
from repro.service.coordinator import Coordinator
from repro.service.jobs import (
    CANCELLED,
    DONE,
    DONE_PARTIAL,
    QUEUED,
    RUNNING,
    SweepJob,
    job_from_experiment,
    new_job,
)
from repro.service.queue import InMemoryJobQueue
from repro.service.runtable import RunTable, row_fingerprint


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def calibration(testbed):
    return build_single_link_calibration(testbed, scale=ExperimentScale.smoke())


@pytest.fixture(scope="module")
def serial_reference(testbed, calibration):
    results = SerialBackend().run(testbed, list(calibration.trials))
    return {r.trial_id: r for r in results}


def _trials(n, prefix="t"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  0, 4.0, 1.0)
        for i in range(n)
    ]


class FakeRunTrial:
    """Scripted run_trial: per-trial canned results, optional failures,
    and a hook called before each execution (for mid-run submissions).
    Scripted failures raise ``exc_type`` — OSError (transient, retried)
    by default; set RuntimeError etc. to exercise the permanent path."""

    def __init__(self, fail=None, hook=None, exc_type=OSError):
        self.calls = []
        self.fail = dict(fail or {})  # trial_id -> times to raise
        self.hook = hook
        self.exc_type = exc_type

    def __call__(self, testbed, trial):
        self.calls.append(trial.trial_id)
        if self.hook is not None:
            self.hook(trial)
        left = self.fail.get(trial.trial_id, 0)
        if left > 0:
            self.fail[trial.trial_id] = left - 1
            raise self.exc_type(f"scripted failure for {trial.trial_id}")
        return TrialResult(
            trial_id=trial.trial_id,
            flow_mbps={trial.flows[0]: 1.0},
            fingerprint=trial.fingerprint(),
        )


@pytest.fixture
def fake(monkeypatch):
    runner = FakeRunTrial()
    monkeypatch.setattr("repro.service.worker.run_trial", runner)
    return runner


@pytest.fixture
def co(tmp_path, monkeypatch):
    monkeypatch.setattr(coordinator_module, "MAX_RETRIES", 2)
    monkeypatch.setattr(coordinator_module, "BACKOFF_CAP_S", 0.25)
    sleeps = []
    coordinator = Coordinator(
        str(tmp_path / "svc"),
        backoff_base_s=0.1,
        sleep=sleeps.append,
        testbed_factory=lambda seed: types.SimpleNamespace(seed=seed),
    )
    coordinator.sleeps = sleeps
    yield coordinator
    coordinator.runtable.close()


class TestSchedulingLogic:
    def test_happy_path_streams_rows(self, co, fake):
        job_id = co.submit(new_job("sweep", _trials(3)))
        done = co.run_once()
        assert done.job_id == job_id and done.state == DONE
        assert (done.completed, done.quarantined) == (3, 0)
        assert fake.calls == ["t/0", "t/1", "t/2"]
        assert co.runtable.trial_count(experiment="sweep") == 3
        assert co.runtable.get_job(job_id).state == DONE
        # results persisted to the job's fingerprinted store too
        store = ResultStore(co._store_path(done))
        assert len(store) == 3

    def test_transient_retry_succeeds_with_capped_backoff(self, co, fake):
        fake.fail = {"t/1": 2}  # two transient failures, third succeeds
        co.submit(new_job("retry", _trials(3)))
        done = co.run_once()
        assert done.state == DONE and done.completed == 3
        assert fake.calls.count("t/1") == 3
        assert co.sleeps == [0.1, 0.2]

    def test_backoff_is_capped(self, co, fake, monkeypatch):
        fake.fail = {"t/0": 99}
        monkeypatch.setattr(coordinator_module, "MAX_RETRIES", 4)
        co.submit(new_job("cap", _trials(1)))
        done = co.run_once()
        assert done.state == DONE_PARTIAL and done.quarantined == 1
        assert co.sleeps == [0.1, 0.2, 0.25, 0.25]

    def test_exhausted_retries_quarantine_but_finish_sweep(self, co, fake):
        fake.fail = {"t/1": 99}
        job_id = co.submit(new_job("partial", _trials(3)))
        done = co.run_once()
        assert done.state == DONE_PARTIAL
        assert (done.completed, done.quarantined) == (2, 1)
        assert "scripted failure" in done.error
        # the failing trial got 1 + MAX_RETRIES attempts, the rest ran once
        assert fake.calls.count("t/1") == 3
        rows = co.runtable.recent_runs(experiment="partial",
                                       status="quarantined",
                                       with_payload=True)
        assert [r["trial_id"] for r in rows] == ["t/1"]
        assert rows[0]["payload"]["error_class"] == "OSError"
        assert co.runtable.trial_count(experiment="partial", status="ok") == 2
        assert co.runtable.get_job(job_id).state == DONE_PARTIAL

    def test_permanent_failure_quarantines_without_retry(self, co, fake):
        """A ValueError inside a deterministic trial reproduces on every
        attempt — retrying it would only burn the budget."""
        fake.fail = {"t/0": 99}
        fake.exc_type = ValueError
        job_id = co.submit(new_job("perm", _trials(2)))
        done = co.run_once()
        assert done.state == DONE_PARTIAL
        assert (done.completed, done.quarantined) == (1, 1)
        assert fake.calls.count("t/0") == 1  # no retries
        assert co.sleeps == []
        rows = co.runtable.recent_runs(experiment="perm",
                                       status="quarantined",
                                       with_payload=True)
        assert rows[0]["payload"]["error_class"] == "ValueError"
        assert co.runtable.get_job(job_id).state == DONE_PARTIAL

    def test_retry_budget_is_shared_across_the_job(self, co, fake, monkeypatch):
        """Per-job transient budget: once it's spent, later transient
        failures quarantine immediately instead of retrying."""
        monkeypatch.setattr(coordinator_module, "RETRY_BUDGET", 2)
        fake.fail = {"t/0": 99, "t/1": 99}
        co.submit(new_job("budget", _trials(3)))
        done = co.run_once()
        assert done.state == DONE_PARTIAL
        assert (done.completed, done.quarantined) == (1, 2)
        # t/0 spends the whole budget (1 + 2 attempts); t/1 gets exactly
        # one attempt, t/2 succeeds first try.
        assert fake.calls.count("t/0") == 3
        assert fake.calls.count("t/1") == 1
        assert len(co.sleeps) == 2

    def test_resume_skips_previously_quarantined_trials(self, co, fake):
        """A trial quarantined by a previous incarnation is re-counted
        from its run-table row on resume, never re-executed — re-running
        it would hang/crash another worker."""
        fake.fail = {"t/1": 99}
        fake.exc_type = ValueError
        job_id = co.submit(new_job("resume-q", _trials(3)))
        assert co.run_once().state == DONE_PARTIAL
        first_calls = list(fake.calls)

        # resubmit the same sweep as the crash-resume path would
        job = co.runtable.get_job(job_id)
        job.state = QUEUED
        co.submit(job)
        done = co.run_once()
        assert done.state == DONE_PARTIAL
        assert (done.completed, done.quarantined) == (2, 1)
        # no trial re-ran: completed came from the store, t/1 from its row
        assert fake.calls == first_calls

    def test_cancel_queued_job_is_immediate(self, co, fake):
        job_id = co.submit(new_job("doomed", _trials(2)))
        assert co.cancel(job_id) is True
        assert co.job_progress(job_id)["state"] == CANCELLED
        assert co.run_once() is None
        assert fake.calls == []
        assert co.cancel(job_id) is False  # already terminal
        assert co.runtable.get_job(job_id).state == CANCELLED

    def test_cancel_mid_run_stops_at_the_boundary(self, co, fake):
        """The contract: a cancel requested during t/0 of 6 lands within
        one trial (the worker reads the server's verdict one trial late),
        and the job ends cancelled with every trial it ran counted."""
        job_id = co.submit(new_job("midrun", _trials(6)))

        def cancel(trial):
            fake.hook = None  # only once
            co.cancel(job_id)

        fake.hook = cancel
        done = co.run_once()
        assert done.state == CANCELLED
        assert fake.calls in (["t/0"], ["t/0", "t/1"])
        assert done.completed == len(fake.calls)

    def test_higher_priority_preempts_at_the_boundary(self, co, fake):
        """The contract: a priority-5 job submitted during low/0 of 6
        requeues the low job within one trial, the high job runs next, and
        no low trial re-runs after the resume."""
        low_id = co.submit(new_job("low", _trials(6, "low"), priority=0))

        def submit_high(trial):
            fake.hook = None  # only once
            co.submit(new_job("high", _trials(1, "high"), priority=5))

        fake.hook = submit_high
        preempted = co.run_once()
        assert preempted.job_id == low_id and preempted.state == QUEUED
        ran = list(fake.calls)
        assert ran in (["low/0"], ["low/0", "low/1"])

        high = co.run_once()
        assert high.name == "high" and high.state == DONE

        resumed = co.run_once()
        assert resumed.job_id == low_id and resumed.state == DONE
        assert resumed.completed == 6
        # what ran before the preemption was served from the store
        assert fake.calls == ran + ["high/0"] + [
            f"low/{i}" for i in range(len(ran), 6)]

    def test_stop_requeues_and_resume_serves_from_cache(self, co, fake):
        co.submit(new_job("stopme", _trials(3)))
        fake.hook = lambda trial: co._stop.set()
        stopped = co.run_once()
        assert stopped.state == QUEUED
        assert co.runtable.get_job(stopped.job_id).state == QUEUED
        assert fake.calls == ["t/0"]

        co._stop.clear()
        fake.hook = None
        done = co.run_once()
        assert done.state == DONE and done.completed == 3
        assert fake.calls == ["t/0", "t/1", "t/2"]  # t/0 not re-run

    def test_terminal_jobs_are_evicted_from_the_live_map(self, co, fake):
        """Finished jobs live on in the run-table only, so a long-lived
        serve process does not accumulate every job's trial list."""
        job_id = co.submit(new_job("evicted", _trials(1)))
        assert job_id in co._jobs
        co.run_once()
        assert job_id not in co._jobs
        assert co.job_progress(job_id)["state"] == DONE
        assert any(j["job_id"] == job_id for j in co.list_jobs())

    def test_wait_snapshot_and_unknown(self, co, fake):
        job_id = co.submit(new_job("w", _trials(1)))
        progress = co.wait(job_id)
        assert progress["state"] == QUEUED and progress["total"] == 1
        assert co.wait("missing") is None
        co.run_once()
        assert co.wait(job_id, cursor=0, timeout=1.0)["state"] == DONE


class TestLeaseHeartbeat:
    """Jobs whose trials collectively outlive ``lease_s`` — the coordinator
    must heartbeat at every boundary, and a worker that *did* lose its
    lease must back away instead of double-running the job."""

    class Clock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    def _co(self, tmp_path, lease_s=5.0):
        clock = self.Clock()
        queue = InMemoryJobQueue(default_lease_s=lease_s, clock=clock)
        co = Coordinator(
            str(tmp_path / "svc"),
            queue=queue,
            lease_s=lease_s,
            sleep=lambda s: None,
            testbed_factory=lambda seed: types.SimpleNamespace(seed=seed),
        )
        return co, queue, clock

    def test_long_job_is_not_reaped_mid_run(self, tmp_path, fake):
        """Three 0.4 s trials under a 0.6 s lease: without the worker's
        heartbeat thread (every lease/3), another worker's reaper would
        re-lease the job mid-run and both workers would execute (and
        finalize) it."""
        co = Coordinator(
            str(tmp_path / "svc"),
            lease_s=0.6,
            sleep=lambda s: None,
            testbed_factory=lambda seed: types.SimpleNamespace(seed=seed),
        )
        reaped = []

        def tick(trial):
            time.sleep(0.4)  # each trial eats most of the lease
            reaped.extend(co.queue.reap_expired())  # another worker's reaper

        fake.hook = tick
        co.submit(new_job("slow", _trials(3)))
        done = co.run_once()
        assert done.state == DONE and done.completed == 3
        assert reaped == []
        assert fake.calls == ["t/0", "t/1", "t/2"]
        co.runtable.close()

    def test_stale_worker_backs_off_after_reap(self, tmp_path, fake):
        """A worker whose lease expired and was re-granted backs away at
        its next verb: its in-flight result writes no row, store line or
        counter bump, and no FAILED finalize — the new holder re-runs that
        trial (bit-identically) and finishes the job."""
        co, queue, clock = self._co(tmp_path, lease_s=5.0)

        def expire_and_steal(trial):
            fake.hook = None  # only on the first trial
            clock.now += 6.0
            assert queue.reap_expired() == [job_id]
            assert queue.lease("w-thief", timeout=0) is not None

        fake.hook = expire_and_steal
        job_id = co.submit(new_job("stolen", _trials(3)))
        # Runs t/0, whose record bounces, and t/1 before reading the 409.
        job = co.run_once()
        assert job.state == RUNNING  # the stale worker never finalized it
        assert fake.calls == ["t/0", "t/1"]
        assert co.runtable.get_job(job_id).state == RUNNING
        assert job.completed == 0
        assert co.runtable.trial_count(experiment="stolen") == 0
        assert len(ResultStore(co._store_path(job))) == 0

        # the thief re-runs t/0 and finishes the job
        co._run_job("w-thief", job)
        assert job.state == DONE and job.completed == 3
        assert fake.calls == ["t/0", "t/1", "t/0", "t/1", "t/2"]
        serial = {t.trial_id: FakeRunTrial()(None, t) for t in _trials(3)}
        assert {r.trial_id: r for r in co.runtable.results("stolen")} == serial
        assert co.runtable.trial_count(experiment="stolen") == 3
        co.runtable.close()

    def test_regrant_during_a_local_trial_fences_the_stale_holder(
        self, tmp_path, fake
    ):
        """A local holder is reaped during t/0 and the job re-granted to a
        remote worker: the stale holder's t/0 never lands, so the re-grant's
        records alone build the job — completed == total, one row per
        trial, every row stamped with the re-grant's worker and token."""
        co, queue, clock = self._co(tmp_path, lease_s=5.0)
        grants = []

        def expire_and_regrant(trial):
            fake.hook = None  # only on the first trial
            clock.now += 6.0
            grants.append(co.lease_for_remote("wR"))

        fake.hook = expire_and_regrant
        job_id = co.submit(new_job("regrant", _trials(3)))
        co.run_once()
        (grant,) = grants
        token = grant["token"]
        assert [t.trial_id for t in grant["pending"]] == ["t/0", "t/1", "t/2"]
        for trial in grant["pending"]:
            co.record_remote_result(job_id, "wR", token,
                                    FakeRunTrial()(None, trial))
        final = co.remote_ack(job_id, "wR", token)
        assert final["state"] == DONE
        assert final["completed"] == final["total"] == 3
        rows = co.runtable.recent_runs(experiment="regrant", limit=10)
        assert sorted(r["trial_id"] for r in rows) == ["t/0", "t/1", "t/2"]
        assert {(r["worker_id"], r["token"]) for r in rows} == {("wR", token)}
        co.runtable.close()

    def test_stale_token_on_a_local_write_backs_away(
        self, tmp_path, fake, monkeypatch
    ):
        """The run-table's fence (a newer grant already wrote the row)
        means "back away" on the local path too: no job.error on the job
        the new holder shares, no FAILED finalize, and run_once returns
        normally."""
        co, queue, clock = self._co(tmp_path)
        real_record = co.runtable.record_trial
        tokens = []

        def fenced_once(*args, **kwargs):
            if not tokens:
                tokens.append(kwargs["token"])
                raise StaleTokenError("injected: a newer grant holds the row")
            return real_record(*args, **kwargs)

        monkeypatch.setattr(co.runtable, "record_trial", fenced_once)
        job_id = co.submit(new_job("fenced", _trials(3)))
        job = co.run_once()
        assert job.job_id == job_id
        assert tokens[0] is not None  # the local write carried its token
        assert fake.calls == ["t/0", "t/1"]  # the 409 is read after t/1
        assert job.state == RUNNING and job.error is None
        assert co.runtable.get_job(job_id).state == RUNNING
        co.runtable.close()


class TestJobRowTracksLiveJob:
    """A job's row is written at its transitions only (submit, grant,
    requeue, finalize), and each write decodes to exactly the live job.
    Between transitions the live job alone counts trials."""

    def test_row_equals_live_job_at_every_transition_and_a_kill(
        self, tmp_path, monkeypatch
    ):
        data_dir = str(tmp_path / "svc")
        wires, writes = [], []
        real_to_wire = SweepJob.to_wire
        monkeypatch.setattr(
            SweepJob, "to_wire",
            lambda self: wires.append(self.name) or real_to_wire(self),
        )
        real_upsert = RunTable.upsert_job

        def upsert(table, job):
            real_upsert(table, job)
            # the row is the live job, through both of the row's decoders
            assert table.get_job(job.job_id) == job
            assert table.job_progress(job.job_id) == [job.progress()]
            writes.append((job.name, job.state, job.completed))

        monkeypatch.setattr(RunTable, "upsert_job", upsert)
        runner = FakeRunTrial()
        monkeypatch.setattr("repro.service.worker.run_trial", runner)

        def coordinator():
            return Coordinator(
                data_dir,
                testbed_factory=lambda seed: types.SimpleNamespace(seed=seed),
            )

        co = coordinator()
        # Uninterrupted: three writes (nine with a per-trial UPDATE).
        co.submit(new_job("whole", _trials(6)))
        assert co.run_once().state == DONE
        assert writes == [("whole", QUEUED, 0), ("whole", RUNNING, 0),
                          ("whole", DONE, 6)]

        # A stop during t/0 requeues: the row takes the live count.
        writes.clear()
        job_id = co.submit(new_job("sweep", _trials(6)))
        runner.hook = lambda trial: co._stop.set()
        assert co.run_once().state == QUEUED
        co._stop.clear()
        assert writes == [("sweep", QUEUED, 0), ("sweep", RUNNING, 0),
                          ("sweep", QUEUED, 1)]

        def hook(trial):
            # Trials move the live job only; the row keeps the grant's.
            live = co._jobs[job_id]
            assert co.job_progress(job_id) == live.progress()
            assert co.runtable.get_job(job_id).completed == 1
            if trial.trial_id == "t/3":
                raise KeyboardInterrupt  # kill -9 before the fourth trial

        runner.hook = hook
        writes.clear()
        with pytest.raises(KeyboardInterrupt):
            co.run_once()
        assert writes == [("sweep", RUNNING, 1)]  # the re-grant, once
        assert co._jobs[job_id].completed == 3
        co.runtable.close()

        reopened = coordinator()
        row = reopened.runtable.get_job(job_id)
        assert (row.state, row.completed) == (RUNNING, 1)
        # not live in this process: the progress read comes from columns
        assert reopened.job_progress(job_id) == row.progress()
        writes.clear()
        assert reopened.resume_open_jobs() == [job_id]
        runner.hook, runner.calls = None, []
        done = reopened.run_once()
        assert (done.state, done.completed) == (DONE, 6)
        assert runner.calls == ["t/3", "t/4", "t/5"]  # three from the store
        assert writes == [("sweep", QUEUED, 0), ("sweep", RUNNING, 3),
                          ("sweep", DONE, 6)]
        # Serialised by the first submit only: a lease reply carries the
        # job's header (SweepJob.header), and later writes are columns.
        assert wires == ["whole", "sweep"]
        reopened.runtable.close()


class TestIdempotentSubmit:
    def test_concurrent_submits_under_one_key_make_one_job(
        self, co, monkeypatch
    ):
        """Each submit's key lookup waits at a barrier for the other's (or
        1 s). The lookup and the job's first upsert share one lock, so the
        second submit finds the first job's row and returns its id."""
        barrier = threading.Barrier(2, timeout=1.0)
        real_lookup = co.runtable.job_by_idempotency_key

        def lookup(key):
            found = real_lookup(key)
            with contextlib.suppress(threading.BrokenBarrierError):
                barrier.wait()
            return found

        monkeypatch.setattr(co.runtable, "job_by_idempotency_key", lookup)
        ids = []

        def submit():
            job = new_job("keyed", _trials(2))
            job.idempotency_key = "one-key"
            ids.append(co.submit(job))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert len(ids) == 2 and ids[0] == ids[1]
        assert co.queue.queued_count() == 1


def assert_done_jobs_own_their_rows(runtable):
    """Every ``done`` job has one ``ok`` row per completed trial, under the
    key of its own world and stamped with its testbed seed."""
    for job in runtable.list_jobs(limit=1000, states=(DONE,)):
        rows = runtable.recent_runs(limit=100_000, experiment=job.name,
                                    status="ok")
        seeds = {(r["trial_id"], r["fingerprint"]): r["seed"] for r in rows}
        keys = [
            (t.trial_id, row_fingerprint(t.fingerprint(), job.testbed_seed))
            for t in job.trials
        ]
        assert [seeds.get(k) for k in keys] == [job.testbed_seed] * len(keys)
        assert job.completed == len(keys)


class TestAgainstRealTrials:
    def test_bit_identical_to_serial_backend(self, tmp_path, testbed,
                                             calibration, serial_reference):
        co = Coordinator(str(tmp_path / "svc"),
                         testbed_factory=lambda seed: testbed)
        job_id = co.submit_experiment(calibration, testbed_seed=testbed.seed)
        done = co.run_once()
        assert done.job_id == job_id and done.state == DONE
        got = {r.trial_id: r for r in co.runtable.results(calibration.name)}
        assert got == serial_reference

        totals = [sum(r.flow_mbps.values()) for r in serial_reference.values()]
        p50 = co.runtable.percentiles(calibration.name, "total_mbps", [50])[50]
        assert p50 == stats.percentile(totals, 50)
        assert_done_jobs_own_their_rows(co.runtable)
        co.runtable.close()

    def test_two_testbeds_keep_their_own_rows(self, tmp_path):
        """One spec submitted on testbeds 1 and 2: each job lands its own
        rows, equal to its own world's serial run, and testbed 1's rows
        keep the spec fingerprint as their key."""
        testbeds = {seed: Testbed(seed=seed) for seed in (1, 2)}
        spec = build_single_link_calibration(
            testbeds[1], scale=ExperimentScale.smoke(), seed=1
        )
        co = Coordinator(str(tmp_path / "svc"),
                         testbed_factory=testbeds.__getitem__)
        jobs = {seed: co.submit_experiment(spec, testbed_seed=seed)
                for seed in testbeds}
        while co.run_once() is not None:
            pass
        assert co.runtable.trial_count(experiment=spec.name) == 4
        rows = co.runtable.recent_runs(experiment=spec.name, with_payload=True)
        for seed, job_id in jobs.items():
            assert co.runtable.get_job(job_id).state == DONE
            serial = SerialBackend().run(testbeds[seed], list(spec.trials))
            assert {
                r["trial_id"]: r["payload"] for r in rows if r["job_id"] == job_id
            } == {r.trial_id: r.to_json() for r in serial}
        assert {r["fingerprint"] for r in rows if r["seed"] == 1} == {
            t.fingerprint() for t in spec.trials
        }
        assert_done_jobs_own_their_rows(co.runtable)
        co.runtable.close()

    def test_crash_mid_job_then_restart_resumes_bit_identical(
        self, tmp_path, testbed, calibration, serial_reference, monkeypatch
    ):
        """The acceptance path: kill the coordinator after the first trial,
        start a fresh one on the same data dir, and the finished sweep is
        bit-identical to the serial run — with the surviving trial served
        from the store, not re-executed."""
        data_dir = str(tmp_path / "svc")
        co1 = Coordinator(data_dir, testbed_factory=lambda seed: testbed)
        job_id = co1.submit_experiment(calibration, testbed_seed=testbed.seed)

        from repro.experiments.executor import run_trial as real_run_trial

        calls1 = []

        def dying_run_trial(tb, trial):
            if calls1:
                raise KeyboardInterrupt  # simulated kill -9 mid-job
            calls1.append(trial.trial_id)
            return real_run_trial(tb, trial)

        monkeypatch.setattr("repro.service.worker.run_trial",
                            dying_run_trial)
        with pytest.raises(KeyboardInterrupt):
            co1.run_once()
        # the crash left a running job row and a partial store behind
        assert co1.runtable.get_job(job_id).state == "running"
        assert len(ResultStore(co1._store_path(co1._jobs[job_id]))) == 1
        co1.runtable.close()

        co2 = Coordinator(data_dir, testbed_factory=lambda seed: testbed)
        assert co2.resume_open_jobs() == [job_id]

        calls2 = []

        def counting_run_trial(tb, trial):
            calls2.append(trial.trial_id)
            return real_run_trial(tb, trial)

        monkeypatch.setattr("repro.service.worker.run_trial",
                            counting_run_trial)
        done = co2.run_once()
        assert done.job_id == job_id and done.state == DONE
        assert done.completed == len(calibration.trials)
        # only the trial the crash interrupted re-ran
        assert len(calls2) == len(calibration.trials) - 1
        assert calls1[0] not in calls2

        got = {r.trial_id: r for r in co2.runtable.results(calibration.name)}
        assert got == serial_reference
        assert_done_jobs_own_their_rows(co2.runtable)
        co2.runtable.close()

    def test_resumes_from_a_pr10_format_store(
        self, tmp_path, testbed, calibration, serial_reference, monkeypatch
    ):
        """A data dir written before the JSON-lines store resumes: the
        trial the old single-object file holds is served from it, only
        the other one runs, and the file is upgraded in passing."""
        co = Coordinator(str(tmp_path / "svc"),
                         testbed_factory=lambda seed: testbed)
        job = job_from_experiment(calibration, testbed_seed=testbed.seed)
        shutil.copy(
            os.path.join(os.path.dirname(__file__), "data",
                         "store_pr10_format.json"),
            co._store_path(job),
        )
        from repro.experiments.executor import run_trial as real_run_trial

        calls = []

        def counting_run_trial(tb, trial):
            calls.append(trial.trial_id)
            return real_run_trial(tb, trial)

        monkeypatch.setattr("repro.service.worker.run_trial",
                            counting_run_trial)
        co.submit(job)
        done = co.run_once()
        assert done.state == DONE and calls == ["calibration/dcf"]
        got = {r.trial_id: r for r in co.runtable.results(calibration.name)}
        assert got == serial_reference
        with open(co._store_path(job)) as f:
            assert len(f.read().splitlines()) == 1 + len(calibration.trials)
        co.runtable.close()
