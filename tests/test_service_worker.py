"""Remote worker fleet: the HTTP lease protocol end to end.

Covers the tentpole guarantees of the partition-tolerant worker design:
leases carry fencing tokens, uploads are idempotent under every transport
fault the plan can inject (drop / delay / truncate / duplicate), a reaped
worker backs away on its first 409, the coordinator degrades to local
execution when the fleet goes stale, and the hardened HTTP server sheds
oversized and hung clients instead of pinning threads.
"""

import http.client
import socket
import sys
import threading
import time

import pytest

from repro.errors import StaleTokenError
from repro.experiments.executor import SerialBackend
from repro.experiments.runners import ExperimentScale, build_single_link_calibration
from repro.experiments.spec import MacSpec, TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.service.coordinator import Coordinator
from repro.service import http_api
from repro.service.faults import FaultPlan, FaultRule, canned_plan
from repro.service.http_api import (
    MAX_BODY_BYTES,
    ApiError,
    ServiceClient,
    make_server,
    serve_in_thread,
)
from repro.service.jobs import new_job
from repro.service.queue import InMemoryJobQueue, LeaseLost
from repro.service.worker import ABANDONED, ACKED, REQUEUED, Worker


def _trials(n, prefix="t"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  0, 4.0, 1.0)
        for i in range(n)
    ]


class _ScriptedRunTrial:
    """Deterministic fake: trial ``p/i`` yields ``i + 1`` Mbps. Ids listed
    in ``slow_once`` sleep ``slow_s`` on their *first* execution only —
    how a test makes a lease expire mid-job exactly once."""

    def __init__(self, slow_once=(), slow_s=0.0):
        self.slow_once = set(slow_once)
        self.slow_s = slow_s
        self.calls = []

    def __call__(self, testbed, trial, **kwargs):
        self.calls.append(trial.trial_id)
        if trial.trial_id in self.slow_once:
            self.slow_once.discard(trial.trial_id)
            time.sleep(self.slow_s)
        _, _, index = trial.trial_id.rpartition("/")
        return TrialResult(
            trial_id=trial.trial_id,
            flow_mbps={trial.flows[0]: float(index) + 1.0},
            fingerprint=trial.fingerprint(),
        )


class _Service:
    """One coordinator + HTTP server on an ephemeral port, torn down by
    the fixture/test that built it."""

    def __init__(self, data_dir, **co_kwargs):
        co_kwargs.setdefault("sleep", lambda s: None)
        co_kwargs.setdefault("testbed_factory", lambda seed: None)
        self.co = Coordinator(str(data_dir), **co_kwargs)
        self.server = make_server(self.co)
        serve_in_thread(self.server)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.client = ServiceClient(self.url, timeout=10.0)
        #: Every client made against this service, closed with it.
        self.clients = [self.client]

    def close(self):
        for client in self.clients:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.co.stop(timeout=5.0)
        self.co.runtable.close()


@pytest.fixture
def scripted(monkeypatch):
    fake = _ScriptedRunTrial()
    monkeypatch.setattr("repro.service.worker.run_trial", fake)
    return fake


def _worker(service, worker_id, plan=None, **kw):
    kw.setdefault("testbed_factory", lambda seed: None)
    kw.setdefault("sleep", lambda s: None)
    client = ServiceClient(service.url, timeout=10.0)
    service.clients.append(client)
    return Worker(client, worker_id=worker_id, fault_plan=plan, **kw)


def _submit(service, n=4, name="sweep", priority=0):
    job = new_job(name, _trials(n, prefix=name), priority=priority)
    service.co.submit(job)
    return job


class TestEndToEnd:
    def test_one_worker_runs_a_job_over_http(self, tmp_path, scripted):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=4)
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 4
            assert progress["attempt"] == 1
            rows = service.co.runtable.recent_runs(limit=100,
                                                   experiment="sweep")
            assert len(rows) == 4
            assert {r["worker_id"] for r in rows} == {"wA"}
            assert all(r["token"] == rows[0]["token"] for r in rows)
        finally:
            service.close()

    def test_lease_reply_carries_each_trial_once(self, tmp_path):
        """The leased job is a header: its trials travel once, as
        ``pending``, and a real fleet job still lands serial's rows."""
        testbed = Testbed(seed=1)
        trials = list(build_single_link_calibration(
            testbed, scale=ExperimentScale.smoke()).trials)[:3]
        serial = SerialBackend().run(testbed, trials)
        service = _Service(tmp_path, testbed_factory=lambda seed: testbed)
        try:
            job = new_job("lease", trials, testbed_seed=testbed.seed)
            service.co.submit(job)
            w = _worker(service, "wA", testbed_factory=lambda seed: testbed)
            replies = []
            lease_job = w.client.lease_job
            w.client.lease_job = lambda *a, **kw: (
                replies.append(lease_job(*a, **kw)) or replies[-1])
            w.register()
            assert w.run_one() == ACKED
            header = replies[0]["job"]
            assert "trials" not in header
            assert (header["job_id"], header["testbed_seed"]) == (
                job.job_id, testbed.seed)
            assert [t["trial_id"] for t in replies[0]["pending"]] == [
                t.trial_id for t in trials]
            assert service.co.runtable.results("lease") == serial
        finally:
            service.close()

    def test_two_workers_split_the_queue(self, tmp_path, scripted):
        service = _Service(tmp_path)
        try:
            _submit(service, n=3, name="jobA")
            _submit(service, n=3, name="jobB")
            wa, wb = _worker(service, "wA"), _worker(service, "wB")
            wa.register()
            wb.register()
            assert wa.run_one() == ACKED
            assert wb.run_one() == ACKED
            assert wa.run_one() is None and wb.run_one() is None
            rows = service.co.runtable.recent_runs(limit=100)
            assert len(rows) == 6
            assert {r["worker_id"] for r in rows} == {"wA", "wB"}
        finally:
            service.close()

    def test_release_serves_uploaded_trials_from_cache(self, tmp_path,
                                                       scripted):
        """A re-leased job's already-uploaded trials are swept server-side
        (recorded from the store, not shipped) — the worker only receives
        what still needs running."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=3)
            w = _worker(service, "wA")
            w.register()
            leased = w.client.lease_job("wA")
            assert len(leased["pending"]) == 3
            token = leased["token"]
            # Upload one result, then give the job back.
            res = TrialResult(
                trial_id="sweep/0",
                flow_mbps={(0, 1): 1.0},
                fingerprint=_trials(3, "sweep")[0].fingerprint(),
            )
            w.client.upload_result(job.job_id, "wA", token, res.to_json())
            w.client.requeue_job(job.job_id, "wA", token)
            leased2 = w.client.lease_job("wA")
            assert leased2["token"] > token
            assert [t["trial_id"] for t in leased2["pending"]] == [
                "sweep/1", "sweep/2"
            ]
        finally:
            service.close()

    def test_graceful_stop_requeues_at_the_boundary(self, tmp_path,
                                                    scripted):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=2)
            w = _worker(service, "wA")
            w.register()
            w.stop()  # drain requested before the first boundary
            assert w.run_one() == REQUEUED
            assert service.co.queue.get(job.job_id) is not None
            assert service.co.queue.queued_count() == 1
        finally:
            service.close()


class TestTransportFaults:
    def test_duplicated_upload_lands_one_row(self, tmp_path, scripted):
        """`duplicate` sends every byte twice; the fenced, fingerprint-
        deduplicated upload path must land exactly one row and bump the
        progress counter exactly once."""
        plan = FaultPlan([
            FaultRule(site="worker.upload", action="duplicate", times=0),
        ])
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=4)
            w = _worker(service, "wA", plan=plan)
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 4
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 4
        finally:
            service.close()

    def test_duplicated_quarantine_bumps_counter_once(self, tmp_path,
                                                      scripted):
        """A replayed quarantine upload (truncated response → client
        retry) must land one run-table row *and* one counter bump — the
        idempotency invariant covers both halves."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=2)
            leased = service.client.lease_job("wA")
            token = leased["token"]
            spec = _trials(2, "sweep")[0]
            for _ in range(3):  # original + two replays
                service.client.quarantine_trial(
                    job.job_id, "wA", token, spec.trial_id,
                    spec.fingerprint(), "boom", "RuntimeError",
                )
            progress = service.client.job(job.job_id)
            assert progress["quarantined"] == 1
            assert service.co.runtable.trial_count(
                status="quarantined") == 1
        finally:
            service.close()

    def test_racing_duplicate_uploads_bump_counter_once(self, tmp_path,
                                                        scripted):
        """A retransmission racing its still-in-flight original on a
        second handler thread: the has/put/counter sequence is held under
        the lease's lock, so exactly one upload is recorded even when the
        first is still mid-put when the second arrives."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=1)
            leased = service.client.lease_job("wA")
            token = leased["token"]
            store = service.co.queue.verify(job.job_id, "wA", token)["store"]
            real_put = store.put
            store.put = lambda res: (time.sleep(0.3), real_put(res))[1]
            spec = _trials(1, "sweep")[0]
            wire = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            ).to_json()
            outcomes = []

            def upload():
                with ServiceClient(service.url, timeout=10.0) as client:
                    outcomes.append(client.upload_result(
                        job.job_id, "wA", token, wire)["recorded"])

            threads = [threading.Thread(target=upload) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes) == [False, True]
            assert service.client.job(job.job_id)["completed"] == 1
            assert service.co.runtable.trial_count() == 1
        finally:
            service.close()

    def test_truncated_upload_response_retries_and_dedups(self, tmp_path,
                                                          scripted):
        """`truncate`: the server recorded the row but the reply is lost.
        The worker's retry must be absorbed as a no-op, not a duplicate."""
        plan = FaultPlan([
            FaultRule(site="worker.upload", action="truncate", nth=1),
        ])
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=3)
            w = _worker(service, "wA", plan=plan)
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["completed"] == 3
            rows = service.co.runtable.recent_runs(limit=100)
            assert len(rows) == 3
        finally:
            service.close()

    def test_dropped_lease_poll_is_absorbed(self, tmp_path, scripted):
        plan = FaultPlan([
            FaultRule(site="worker.request", action="drop", key="lease",
                      nth=1),
        ])
        service = _Service(tmp_path)
        try:
            _submit(service, n=2)
            w = _worker(service, "wA", plan=plan)
            w.register()
            assert w.run_one() is None  # the dropped poll
            assert w.run_one() == ACKED  # the next one gets through
        finally:
            service.close()

    def test_canned_worker_chaos_plan_completes_clean(self, tmp_path,
                                                      scripted):
        """The CI plan (delay + drop + duplicate + truncate + dropped
        heartbeats) must end in a done job with zero duplicate rows."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=5)
            w = _worker(service, "wA", plan=canned_plan("worker-chaos"))
            w.register()
            outcomes = {w.run_one(), w.run_one()}
            assert ACKED in outcomes
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 5
        finally:
            service.close()


def _log_verbs(worker):
    """Record, in send order, every per-trial and job-closing verb the
    worker's client is asked to send: [(verb, trial_id or None), ...]."""
    log = []
    client = worker.client

    def wrap(name, trial_of):
        real = getattr(client, name)

        def logged(*args, **kwargs):
            log.append((name, trial_of(args)))
            return real(*args, **kwargs)

        setattr(client, name, logged)

    wrap("send_upload", lambda args: args[3]["trial_id"])
    wrap("send_quarantine", lambda args: args[3])
    wrap("ack_job", lambda args: None)
    wrap("requeue_job", lambda args: None)
    return log


def _run_one_bounded(worker, timeout=30.0):
    """``run_one`` on a thread with a deadline, so a pipeline deadlock is
    a failed assertion instead of a hung suite. Returns (outcome, error)."""
    box = []

    def target():
        try:
            box.append((worker.run_one(), None))
        except BaseException as exc:
            box.append((None, exc))
        finally:
            worker.client.disconnect()  # this thread's kept connection

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "worker.run_one deadlocked"
    return box[0]


class _RecordingTransport:
    """A stand-in for ``ServiceClient``: leases one job, answers every
    verb at once, and logs when each per-trial verb is sent and when its
    reply is read."""

    def __init__(self, job, log):
        self.job = job
        self.log = log
        self.leased = False

    def lease_job(self, worker_id, timeout=0.0):
        if self.leased:
            return {"job": None}
        self.leased = True
        return {"job": self.job.header(), "token": 1,
                "pending": [t.to_wire() for t in self.job.trials]}

    def heartbeat(self, job_id, worker_id, token):
        return {"ok": True}

    def send_upload(self, job_id, worker_id, token, wire, wall=None):
        trial_id = wire["trial_id"]
        self.log.append(("send", trial_id))

        class _Reply:
            def result(reply):
                self.log.append(("read", trial_id))
                return {"recorded": True}

        return _Reply()

    def ack_job(self, job_id, worker_id, token):
        self.log.append(("ack", None))
        return {"state": "done"}

    def disconnect(self):
        pass

    close = disconnect


class TestPipelinedUploads:
    """The one-deep pipeline on the caller's thread keeps the synchronous
    loop's protocol: trial order, nothing after the first 409, outcome
    decided only after every sent verb was answered."""

    #: A slow link on every send: the ``delay`` action on the deferred path.
    SLOW_LINK = FaultRule(site="worker.upload", action="delay",
                          hang_s=0.03, times=0)

    def test_verb_n_leaves_before_trial_n_plus_1_and_is_read_after_it(
        self, monkeypatch
    ):
        """The structure itself, on a recording transport: for every n,
        send(n) precedes the start of trial n+1 and read(n) follows its
        end; while the job runs, the worker has no thread but the caller
        and its heartbeat."""
        log = []
        extra_threads = []
        baseline = set(threading.enumerate())
        fake = _ScriptedRunTrial()

        def run_trial(testbed, trial, **kwargs):
            log.append(("start", trial.trial_id))
            extra_threads.append(set(threading.enumerate()) - baseline)
            out = fake(testbed, trial, **kwargs)
            log.append(("end", trial.trial_id))
            return out

        monkeypatch.setattr("repro.service.worker.run_trial", run_trial)
        job = new_job("sweep", _trials(5, prefix="sweep"))
        w = Worker(_RecordingTransport(job, log), worker_id="wA",
                   testbed_factory=lambda seed: None, sleep=lambda s: None)
        assert w.run_one() == ACKED
        ids = [t.trial_id for t in job.trials]
        for this, after in zip(ids, ids[1:]):
            assert log.index(("end", this)) < log.index(("send", this))
            assert log.index(("send", this)) < log.index(("start", after))
            assert log.index(("end", after)) < log.index(("read", this))
            assert log.index(("read", this)) < log.index(("send", after))
        assert log[-2:] == [("read", ids[-1]), ("ack", None)]
        assert w.stats["uploaded"] == 5
        for threads in extra_threads:
            assert [t.name for t in threads] == [f"hb-{job.job_id}"]

    def test_409_on_upload_n_sends_nothing_after_it(self, tmp_path,
                                                     scripted):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=6)
            w = _worker(service, "wA", plan=FaultPlan([self.SLOW_LINK]))
            w.register()
            real_send = w.client.send_upload

            def send_upload(job_id, worker_id, token, wire, **kw):
                if wire["trial_id"] == "sweep/2":
                    # The lease is reaped just as upload 2 goes out.
                    service.co.queue.force_expire(job_id)
                return real_send(job_id, worker_id, token, wire, **kw)

            w.client.send_upload = send_upload
            log = _log_verbs(w)
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == ABANDONED
            assert log == [("send_upload", f"sweep/{i}") for i in range(3)]
            assert w.stats["uploaded"] == 2
            # Trial 3 ran before upload 2's reply was read; trial 4 never did.
            assert scripted.calls == [f"sweep/{i}" for i in range(4)]
            rows = service.co.runtable.recent_runs(limit=100)
            assert sorted(r["trial_id"] for r in rows) == [
                "sweep/0", "sweep/1"]
            assert service.client.job(job.job_id)["state"] != "done"
        finally:
            service.close()

    def test_stop_mid_job_uploads_every_finished_trial_before_requeue(
        self, tmp_path, monkeypatch
    ):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=5)
            w = _worker(service, "wA", plan=FaultPlan([self.SLOW_LINK]))
            fake = _ScriptedRunTrial()

            def run_trial(testbed, trial, **kwargs):
                if trial.trial_id == "sweep/2":
                    w.stop()  # drain requested while trial 2 computes
                return fake(testbed, trial, **kwargs)

            monkeypatch.setattr("repro.service.worker.run_trial", run_trial)
            w.register()
            log = _log_verbs(w)
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == REQUEUED
            assert log == [("send_upload", f"sweep/{i}")
                           for i in range(3)] + [("requeue_job", None)]
            leased = service.client.lease_job("wB")
            assert leased["job"]["job_id"] == job.job_id
            assert [t["trial_id"] for t in leased["pending"]] == [
                "sweep/3", "sweep/4"]
        finally:
            service.close()

    def test_uploads_arrive_in_trial_order_and_ack_comes_last(
        self, tmp_path, scripted
    ):
        plan = FaultPlan([
            # Uneven link: two sends are slow, one reply is lost
            # (resent), one send is duplicated.
            FaultRule(site="worker.upload", action="delay", hang_s=0.05,
                      key="sweep/0"),
            FaultRule(site="worker.upload", action="delay", hang_s=0.05,
                      key="sweep/3"),
            FaultRule(site="worker.upload", action="truncate",
                      key="sweep/4"),
            FaultRule(site="worker.upload", action="duplicate",
                      key="sweep/5"),
        ])
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=8)
            w = _worker(service, "wA", plan=plan)
            w.register()
            log = _log_verbs(w)
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == ACKED
            sent = [trial for verb, trial in log if verb == "send_upload"]
            assert sent == sorted(sent)  # resends sit next to the original
            assert sent.count("sweep/4") == 2 and sent.count("sweep/5") == 2
            assert log[-1] == ("ack_job", None)
            assert [v for v, _ in log].count("ack_job") == 1
            rows = service.co.runtable.recent_runs(limit=100)
            by_time = sorted(rows, key=lambda r: r["recorded_at"])
            assert [r["trial_id"] for r in by_time] == [
                f"sweep/{i}" for i in range(8)]
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 8
        finally:
            service.close()

    def test_unreachable_server_abandons_without_deadlock(self, tmp_path,
                                                          scripted):
        """Every upload dies before the bytes leave, past the retry
        budget: reading trial 0's reply after trial 1 gives up, and the
        worker abandons without computing anything further."""
        plan = FaultPlan([
            FaultRule(site="worker.upload", action="drop", times=0),
        ])
        service = _Service(tmp_path)
        try:
            _submit(service, n=6)
            w = _worker(service, "wA", plan=plan)
            w.register()
            log = _log_verbs(w)
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == ABANDONED
            assert log == []  # dropped before send; and no ack
            assert w.stats["uploaded"] == 0
            # Trial 1 ran before trial 0's reply was read; no more.
            assert scripted.calls == ["sweep/0", "sweep/1"]
            assert service.co.runtable.trial_count() == 0
        finally:
            service.close()

    def test_non_409_api_error_is_raised_on_the_trial_thread(
        self, tmp_path, scripted
    ):
        """A server bug (500) on an upload is not a back-away signal: it
        surfaces from ``run_one`` when the reply is read, after which
        nothing further was sent."""
        service = _Service(tmp_path)
        try:
            _submit(service, n=6)
            w = _worker(service, "wA", plan=FaultPlan([self.SLOW_LINK]))
            w.register()
            real_record = service.co.record_remote_result

            def record(job_id, worker_id, token, result, **kw):
                if result.trial_id == "sweep/1":
                    raise RuntimeError("boom")
                return real_record(job_id, worker_id, token, result, **kw)

            service.co.record_remote_result = record
            log = _log_verbs(w)
            outcome, error = _run_one_bounded(w)
            assert outcome is None
            assert isinstance(error, ApiError) and error.status == 500
            assert log == [("send_upload", "sweep/0"),
                           ("send_upload", "sweep/1")]
            assert scripted.calls == ["sweep/0", "sweep/1", "sweep/2"]
        finally:
            service.close()

    def test_quarantine_rides_the_same_pipeline(self, tmp_path,
                                                monkeypatch):
        fake = _ScriptedRunTrial()

        def run_trial(testbed, trial, **kwargs):
            if trial.trial_id == "sweep/1":
                raise ValueError("deterministic trial bug")
            return fake(testbed, trial, **kwargs)

        monkeypatch.setattr("repro.service.worker.run_trial", run_trial)
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=3)
            w = _worker(service, "wA", plan=FaultPlan([self.SLOW_LINK]))
            w.register()
            log = _log_verbs(w)
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == ACKED
            assert log == [
                ("send_upload", "sweep/0"),
                ("send_quarantine", "sweep/1"),
                ("send_upload", "sweep/2"),
                ("ack_job", None),
            ]
            assert w.stats["uploaded"] == 2 and w.stats["quarantined"] == 1
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done_partial"
            assert progress["quarantined"] == 1
        finally:
            service.close()

    def test_concurrent_workers_under_a_short_switch_interval(
        self, tmp_path, scripted
    ):
        """Stress: more workers than cores, the interpreter switching
        threads every 10 us, every upload duplicated — a reply read on the
        wrong connection or a lost update would show as a missing or
        doubled row."""
        service = _Service(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [_submit(service, n=12, name=f"job{i}") for i in range(4)]
            plan = [FaultRule(site="worker.upload", action="duplicate",
                              times=0)]
            workers = [_worker(service, f"w{i}", plan=FaultPlan(list(plan)))
                       for i in range(4)]
            outcomes = []

            def drive(worker):
                try:
                    worker.register()
                    outcomes.append(worker.run_one())
                finally:
                    worker.client.disconnect()

            threads = [threading.Thread(target=drive, args=(w,), daemon=True)
                       for w in workers]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert outcomes == [ACKED] * 4
            rows = service.co.runtable.recent_runs(limit=1000)
            keys = [(r["experiment"], r["trial_id"]) for r in rows]
            assert len(keys) == len(set(keys)) == 48
            for job in jobs:
                progress = service.client.job(job.job_id)
                assert progress["state"] == "done"
                assert progress["completed"] == 12
        finally:
            sys.setswitchinterval(interval)
            service.close()

    def test_local_threads_under_a_short_switch_interval(self, tmp_path,
                                                         scripted):
        """The same stress on the in-process path: four coordinator
        threads, each a Worker over LocalClient, drain four jobs."""
        service = _Service(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [_submit(service, n=12, name=f"job{i}") for i in range(4)]
            service.co.start(workers=4)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and any(
                service.co.job_progress(j.job_id)["state"] != "done"
                for j in jobs
            ):
                time.sleep(0.05)
            rows = service.co.runtable.recent_runs(limit=1000)
            keys = [(r["experiment"], r["trial_id"]) for r in rows]
            assert len(keys) == len(set(keys)) == 48
            assert {r["worker_id"] for r in rows} <= {
                f"worker-{i}" for i in range(4)}
            for job in jobs:
                progress = service.co.job_progress(job.job_id)
                assert (progress["state"], progress["completed"]) == ("done", 12)
        finally:
            sys.setswitchinterval(interval)
            service.close()

    def test_uploads_on_connections_the_server_closed_are_replayed(
        self, tmp_path, monkeypatch
    ):
        """Each trial outlasts the server's socket idle timeout, so the
        server closes the worker's kept connection while it computes: an
        upload goes into a dead socket, and reading its reply replays it
        on a fresh one — one row per trial, no leaked socket."""
        monkeypatch.setattr("repro.service.http_api._Handler.timeout", 0.2)
        n = 3
        fake = _ScriptedRunTrial(
            slow_once=[f"sweep/{i}" for i in range(n)], slow_s=0.5)
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        written = []
        real_write = http_api._write

        def write(conn, method, url, *args):
            written.append(url)
            return real_write(conn, method, url, *args)

        monkeypatch.setattr("repro.service.http_api._write", write)
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=n)
            w = _worker(service, "wA")
            w.register()
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == ACKED
            assert w.stats["uploaded"] == n
            assert written.count("/workers/upload") > n  # replayed sends
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == n
            assert service.client.job(job.job_id)["state"] == "done"
        finally:
            service.close()


class TestVerbContract:
    """What a holder does at a trial boundary is decided by the verbs, so
    a remote worker and the coordinator's own threads behave alike: the
    reply's verdict cancels or requeues within one trial, and an error in
    the grant or a record fails the job while the holder backs away."""

    @staticmethod
    def _on_first_trial(monkeypatch, action):
        """Script run_trial; ``action`` runs while trial 0 computes."""
        fake = _ScriptedRunTrial()

        def run_trial(testbed, trial, **kwargs):
            if not fake.calls:
                action()
            return fake(testbed, trial, **kwargs)

        monkeypatch.setattr("repro.service.worker.run_trial", run_trial)
        return fake

    def test_cancel_during_trial_0_lands_within_one_trial(self, tmp_path,
                                                          monkeypatch):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=6)
            fake = self._on_first_trial(
                monkeypatch, lambda: service.co.cancel(job.job_id))
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ACKED
            assert fake.calls in (["sweep/0"], ["sweep/0", "sweep/1"])
            progress = service.client.job(job.job_id)
            assert progress["state"] == "cancelled"
            assert progress["completed"] == len(fake.calls)
        finally:
            service.close()

    def test_higher_priority_arrival_requeues_within_one_trial(
        self, tmp_path, monkeypatch
    ):
        service = _Service(tmp_path)
        try:
            low = _submit(service, n=6, name="low")
            fake = self._on_first_trial(
                monkeypatch,
                lambda: _submit(service, n=1, name="high", priority=5))
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == REQUEUED
            ran = list(fake.calls)
            assert ran in (["low/0"], ["low/0", "low/1"])
            assert service.client.job(low.job_id)["state"] == "queued"
            assert w.run_one() == ACKED  # the high job runs next
            assert fake.calls[-1] == "high/0"
            assert w.run_one() == ACKED
            progress = service.client.job(low.job_id)
            assert (progress["state"], progress["completed"]) == ("done", 6)
            # what ran before the requeue was served from the store
            assert sorted(fake.calls) == sorted(
                ["high/0"] + [f"low/{i}" for i in range(6)])
        finally:
            service.close()

    def test_corrupt_store_fails_the_job_at_the_grant(self, tmp_path,
                                                      scripted):
        service = _Service(tmp_path)
        try:
            job = new_job("sweep", _trials(3, prefix="sweep"))
            with open(service.co._store_path(job), "w") as f:
                f.write('{"testbed_seed": 1}\n{"trial_id": \n')
            service.co.submit(job)
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() is None  # nothing leased
            progress = service.client.job(job.job_id)
            assert progress["state"] == "failed"
            assert "JSONDecodeError" in progress["error"]
            assert w.run_one() is None and scripted.calls == []
            assert service.client.job(job.job_id)["attempt"] == 1
        finally:
            service.close()

    def test_store_that_will_not_save_fails_the_job(self, tmp_path,
                                                    scripted):
        plan = FaultPlan([FaultRule(site="store.save", action="raise",
                                    exc="OSError", times=0)])
        service = _Service(tmp_path, fault_plan=plan)
        try:
            job = _submit(service, n=4)
            w = _worker(service, "wA")
            w.register()
            outcome, error = _run_one_bounded(w)
            assert error is None and outcome == ABANDONED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "failed"
            assert "injected fault" in progress["error"]
            assert service.co.queue.get(job.job_id) is None
            assert w.run_one() is None  # the holder keeps polling
        finally:
            service.close()

    def test_reply_without_a_verdict_reads_as_continue(self, tmp_path,
                                                       monkeypatch):
        """A server that sends no verdict: the worker walks every trial,
        and the server's ack still computes ``cancelled``."""
        real_verb = http_api.worker_verb

        def verdictless(co, verb, body):
            reply = real_verb(co, verb, body)
            reply.pop("verdict", None)
            return reply

        monkeypatch.setattr("repro.service.http_api.worker_verb", verdictless)
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=4)
            fake = self._on_first_trial(
                monkeypatch, lambda: service.co.cancel(job.job_id))
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ACKED
            assert fake.calls == [f"sweep/{i}" for i in range(4)]
            assert service.client.job(job.job_id)["state"] == "cancelled"
        finally:
            service.close()


class TestFencing:
    def test_zombie_upload_is_rejected_with_409(self, tmp_path, scripted):
        """The partition script, driven with an injectable queue clock:
        worker A leases, the partition outlives the lease, B re-leases
        (larger token), and every one of A's late writes gets a 409 —
        nothing of A's lands after the reap."""
        clock = [0.0]
        queue = InMemoryJobQueue(default_lease_s=5.0,
                                 clock=lambda: clock[0])
        service = _Service(tmp_path, queue=queue, lease_s=5.0)
        try:
            job = _submit(service, n=2)
            leased_a = service.client.lease_job("wA")
            token_a = leased_a["token"]
            clock[0] += 5.1  # the partition outlives the lease
            leased_b = service.client.lease_job("wB")
            assert leased_b["job"]["job_id"] == job.job_id
            token_b = leased_b["token"]
            assert token_b > token_a

            spec = _trials(2, "sweep")[0]
            wire = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            ).to_json()
            for verb in (
                lambda: service.client.upload_result(
                    job.job_id, "wA", token_a, wire),
                lambda: service.client.heartbeat(
                    job.job_id, "wA", token_a),
                lambda: service.client.ack_job(
                    job.job_id, "wA", token_a),
            ):
                with pytest.raises(ApiError) as err:
                    verb()
                assert err.value.status == 409
                assert err.value.code == "lease_lost"
            # The new holder is unaffected by the zombie's attempts.
            out = service.client.upload_result(
                job.job_id, "wB", token_b, wire)
            assert out["recorded"] is True
            rows = service.co.runtable.recent_runs(limit=10)
            assert len(rows) == 1 and rows[0]["worker_id"] == "wB"
        finally:
            service.close()

    def test_same_worker_rewin_is_fenced_by_token(self, tmp_path, scripted):
        """A's lease is reaped and A itself re-leases the job: worker-id
        checks pass, but writes carrying the *old* token must not."""
        clock = [0.0]
        queue = InMemoryJobQueue(default_lease_s=5.0,
                                 clock=lambda: clock[0])
        service = _Service(tmp_path, queue=queue, lease_s=5.0)
        try:
            job = _submit(service, n=1)
            token_old = service.client.lease_job("wA")["token"]
            clock[0] += 5.1
            token_new = service.client.lease_job("wA")["token"]
            assert token_new > token_old
            with pytest.raises(ApiError) as err:
                service.client.heartbeat(job.job_id, "wA", token_old)
            assert err.value.code == "lease_lost"
            service.client.heartbeat(job.job_id, "wA", token_new)
        finally:
            service.close()

    def test_runtable_stale_token_maps_to_409(self, tmp_path, scripted):
        """The run-table's own fence (the last line behind the queue
        check) surfaces as 409/stale_token over HTTP."""
        service = _Service(tmp_path)
        try:
            _submit(service, n=1)
            leased = service.client.lease_job("wA")
            job_id = leased["job"]["job_id"]
            token = leased["token"]
            spec = _trials(1, "sweep")[0]
            result = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            )
            # A future grant already recorded this row...
            service.co.runtable.record_trial(
                "sweep", result, replace=True,
                token=token + 10,
            )
            with pytest.raises(ApiError) as err:
                service.client.upload_result(
                    job_id, "wA", token, result.to_json())
            assert err.value.status == 409
            assert err.value.code == "stale_token"
        finally:
            service.close()


    def test_restart_reseeds_token_counter_from_runtable(self, tmp_path,
                                                         scripted):
        """Coordinator restart: the queue's token counter is in-memory,
        the fenced rows are not. A resumed job whose rows carry tokens
        from before the crash must get *fresh* grants that outrank them —
        otherwise the cache sweep and every legitimate upload bounce off
        409 stale_token until the counter catches up."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=2)
            # Burn a few grants so the persisted max outruns a counter
            # naively restarting at 1.
            for _ in range(3):
                burned = service.client.lease_job("wA")
                service.client.requeue_job(job.job_id, "wA",
                                           burned["token"])
            leased = service.client.lease_job("wA")
            token = leased["token"]
            spec = _trials(2, "sweep")[0]
            wire = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            ).to_json()
            service.client.upload_result(job.job_id, "wA", token, wire)
        finally:
            service.close()

        service2 = _Service(tmp_path)
        try:
            assert service2.co.runtable.max_token() == token
            service2.co.resume_open_jobs()
            leased2 = service2.client.lease_job("wB")
            token2 = leased2["token"]
            assert token2 > token
            # The cache sweep re-recorded sweep/0 without a stale bounce
            # and only the un-run trial ships to the new worker.
            assert [t["trial_id"] for t in leased2["pending"]] == ["sweep/1"]
            spec1 = _trials(2, "sweep")[1]
            wire1 = TrialResult(
                trial_id=spec1.trial_id,
                flow_mbps={(0, 1): 2.0},
                fingerprint=spec1.fingerprint(),
            ).to_json()
            out = service2.client.upload_result(
                job.job_id, "wB", token2, wire1)
            assert out["recorded"] is True
            done = service2.client.ack_job(job.job_id, "wB", token2)
            assert done["state"] == "done" and done["completed"] == 2
        finally:
            service2.close()


class TestPartitionedWorker:
    def test_reaped_worker_abandons_then_finishes_on_relase(
        self, tmp_path, monkeypatch
    ):
        """The full partition round trip with real timing: every
        heartbeat is dropped, one trial outlives the lease, the reaper
        (still running while local execution stands down) re-queues the
        job, the worker's next upload gets a 409 and it abandons — then
        its next lease finishes from cache with zero duplicate rows."""
        fake = _ScriptedRunTrial(slow_once=("sweep/2",), slow_s=1.2)
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        plan = FaultPlan([
            FaultRule(site="worker.heartbeat", action="drop", times=0),
        ])
        service = _Service(tmp_path, lease_s=0.5)
        service.co.start(workers=1)  # the reaper (stands down as executor)
        try:
            w = _worker(service, "wA", plan=plan)
            w.register()  # before submit, so local execution stands down
            job = _submit(service, n=4)
            first = w.run_one()
            assert first == ABANDONED
            assert w.stats["uploaded"] == 2  # sweep/0, sweep/1 landed
            # The zombie came back: it re-leases (fresh token), is served
            # the two uploaded trials from cache, and finishes the rest.
            second = w.run_one(timeout=2.0)
            assert second == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 4
            # >= 2: attempt counts every grant, and the local thread may
            # burn one with a lease-then-handback before standing down.
            assert progress["attempt"] >= 2
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 4
            # sweep/2 executed twice (the partition ate the first run)
            # but landed exactly once.
            assert fake.calls.count("sweep/2") == 2
        finally:
            service.close()


class TestDegradation:
    def test_local_threads_stand_down_while_fleet_is_active(self, tmp_path):
        co = Coordinator(str(tmp_path), worker_ttl_s=0.2,
                         testbed_factory=lambda seed: None)
        try:
            assert not co.remote_workers_active()
            co.register_worker("wA")
            assert co.remote_workers_active()
            assert co.remote_workers()[0]["active"] is True
            time.sleep(0.3)
            assert not co.remote_workers_active()  # fleet went stale
            co.touch_worker("wA")  # a late contact does NOT revive...
            assert co.remote_workers_active()  # ...wait: touch refreshes
        finally:
            co.runtable.close()

    def test_a_trial_longer_than_the_ttl_keeps_the_worker_live(
        self, tmp_path, monkeypatch
    ):
        """The heartbeat also keeps the worker in the registry: with a
        lease far longer than the ttl, a trial that outlasts the ttl must
        not let the fleet go stale (the local threads would start
        leasing beside a live worker)."""
        fake = _ScriptedRunTrial(slow_once=("sweep/0",), slow_s=1.5)
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        service = _Service(tmp_path, lease_s=30.0, worker_ttl_s=0.5)
        try:
            _submit(service, n=1)
            w = _worker(service, "wA")
            w.register()
            box, samples = [], []
            thread = threading.Thread(
                target=lambda: box.append(_run_one_bounded(w)))
            thread.start()
            while not fake.calls:
                time.sleep(0.01)
            for _ in range(10):
                time.sleep(0.1)
                samples.append(service.co.remote_workers_active())
            thread.join(timeout=30.0)
            assert box == [(ACKED, None)]
            assert samples == [True] * 10
        finally:
            service.close()

    def test_stale_fleet_falls_back_to_local_execution(self, tmp_path,
                                                       scripted):
        """A registered-then-silent worker must not starve the queue: once
        it ages past the ttl the local threads resume leasing."""
        service = _Service(tmp_path, worker_ttl_s=0.4, lease_s=30.0)
        service.co.start(workers=1)
        try:
            service.co.register_worker("ghost")  # never leases anything
            job = _submit(service, n=2)
            time.sleep(0.2)
            # Fleet still "active": local execution is standing down.
            assert service.client.job(job.job_id)["state"] == "queued"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                progress = service.client.job(job.job_id)
                if progress["state"] == "done":
                    break
                time.sleep(0.1)
            assert progress["state"] == "done"
            rows = service.co.runtable.recent_runs(limit=10)
            # local run: the coordinator's own thread held the lease
            assert {r["worker_id"] for r in rows} == {"worker-0"}
        finally:
            service.close()


class TestServerHardening:
    def test_oversized_body_is_413(self, tmp_path, scripted):
        service = _Service(tmp_path)
        try:
            host, port = service.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            conn.close()
        finally:
            service.close()

    def test_negative_content_length_is_400(self, tmp_path, scripted):
        """Content-Length: -1 must be rejected up front — rfile.read(-1)
        would block until EOF/socket timeout, pinning a handler thread."""
        service = _Service(tmp_path)
        try:
            host, port = service.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            conn.close()
        finally:
            service.close()

    def test_hung_body_read_reclaims_the_thread(self, tmp_path, scripted,
                                                monkeypatch):
        """A client that promises a body and stops sending must not pin a
        handler thread: the socket timeout fires and the connection is
        dropped (recv sees EOF), while the server keeps serving others."""
        monkeypatch.setattr(
            "repro.service.http_api._Handler.timeout", 0.3)
        service = _Service(tmp_path)
        try:
            host, port = service.server.server_address[:2]
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 1000\r\n\r\n"
                b'{"builder":'  # ...and then silence
            )
            sock.settimeout(5.0)
            data = b""
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except socket.timeout:
                pytest.fail("server kept the hung connection open")
            sock.close()
            # The server is still healthy for well-behaved clients.
            assert service.client.health()["ok"] is True
        finally:
            service.close()
