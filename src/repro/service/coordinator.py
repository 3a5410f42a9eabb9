"""The coordinator: the job queue, the lease verbs, and the worker threads.

One coordinator owns a data directory::

    <data_dir>/runs.sqlite        the run-table (trial rows + job table)
    <data_dir>/stores/<job>.json  per-job fingerprinted ResultStores
    <data_dir>/faults/            exactly-once tokens for fault plans

There is one trial loop, :class:`~repro.service.worker.Worker`: remote
workers (``cli work``) drive the lease verbs below over HTTP, and each
local thread runs the same ``Worker`` over ``http_api.LocalClient``, which
calls them directly. A holder is granted its pending trials
(:meth:`Coordinator.grant`), records each one through a token-fenced verb
whose reply carries the :meth:`~Coordinator.verdict`, and ends with
``remote_ack`` (the server computes the terminal state) or
``remote_requeue``. A reaped holder gets :class:`LeaseLost` (or
:class:`~repro.errors.StaleTokenError`) and backs away; an error in the
grant or a record fails the job (:meth:`Coordinator._failing`).

Each job fact has one home. Live progress is the in-memory
:class:`~repro.service.jobs.SweepJob`; the lease and its grant context
(the job's store, the record lock) are the queue entry; idempotency keys
are the run-table's jobs rows. A job's row is written at its transitions
only (submit, grant, requeue, finalize), so
:meth:`Coordinator.resume_open_jobs` can re-queue what a dead process
left open, and the grant recounts its finished trials from the job's
store.
DESIGN.md "Service" and "Failure domains" have the whole protocol.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import SimulatedCrash, StaleTokenError

# run_trial is not called here: benchmarks/ruler/sweepbench.py wraps it by
# name in its traced pass.
from repro.experiments.executor import ResultStore, run_trial  # noqa: F401
from repro.experiments.spec import ExperimentSpec, TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.service.faults import FaultPlan
from repro.service.jobs import (
    CANCELLED,
    DONE,
    DONE_PARTIAL,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    CANCEL,
    CONTINUE,
    YIELD,
    SweepJob,
    job_from_experiment,
)
from repro.service.queue import InMemoryJobQueue, LeaseLost
from repro.service.runtable import RunTable, row_fingerprint

#: The transient-retry policy every worker runs trials under: retries per
#: trial, retries per lease (shared by its trials), and the backoff cap.
#: The coordinator's store saves back off under the same cap.
MAX_RETRIES = 2
RETRY_BUDGET = 16
BACKOFF_CAP_S = 5.0

#: The register handshake: the settings every worker adopts — lease length
#: and worker ttl (its heartbeat cadence), the trial watchdog, and the
#: retry backoff's base.
HANDSHAKE = ("lease_s", "worker_ttl_s", "trial_timeout_s", "backoff_base_s")


class Coordinator:
    """Owns the queue, the run-table, and the worker threads.

    ``backoff_base_s`` (the first transient retry's backoff) and
    ``trial_timeout_s`` (the per-trial watchdog) are the policy every
    worker adopts (:data:`HANDSHAKE`), beside the module's retry caps.
    ``fault_plan`` threads a
    :class:`~repro.service.faults.FaultPlan` through every layer — None
    costs nothing. ``sleep`` is injectable so retry-backoff tests need no
    real waiting.
    """

    def __init__(
        self,
        data_dir: str,
        queue: Optional[InMemoryJobQueue] = None,
        runtable: Optional[RunTable] = None,
        backoff_base_s: float = 0.1,
        lease_s: float = 300.0,
        trial_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
        testbed_factory: Callable[[int], Testbed] = None,
        worker_ttl_s: float = 15.0,
    ):
        self.data_dir = data_dir
        os.makedirs(os.path.join(data_dir, "stores"), exist_ok=True)
        self._fault_plan = fault_plan
        self._fault_hook = None if fault_plan is None else fault_plan.fire
        self.queue = queue or InMemoryJobQueue(default_lease_s=lease_s)
        self.runtable = runtable or RunTable(
            os.path.join(data_dir, "runs.sqlite"),
            sleep=sleep,
            fault_hook=self._fault_hook,
        )
        if self.runtable.rebuilt_from:
            # The previous db failed quick_check and was quarantined: the
            # flat stores are the surviving source of truth — replay them.
            self.runtable.rebuild_from_stores(
                os.path.join(data_dir, "stores")
            )
        # Fencing tokens must stay monotonic across restarts: seed the
        # in-memory counter past the largest token the run-table persisted,
        # or a resumed job's fresh leases would be stale against its rows.
        self.queue.advance_tokens(self.runtable.max_token())
        self.backoff_base_s = backoff_base_s
        self.lease_s = lease_s
        self.trial_timeout_s = trial_timeout_s
        self._sleep = sleep
        self._testbed_factory = testbed_factory or (lambda seed: Testbed(seed=seed))
        self._testbeds: Dict[int, Testbed] = {}
        self.worker_ttl_s = worker_ttl_s
        self._jobs: Dict[str, SweepJob] = {}
        #: Holds an idempotency-key lookup and the job's first upsert
        #: together, so two submits under one key make one job.
        self._submit_lock = threading.Lock()
        #: Remote worker registry: worker_id -> monotonic last-seen. A
        #: worker is *active* while its last contact (register, lease poll,
        #: heartbeat, upload) is younger than ``worker_ttl_s``.
        self._remote_workers: Dict[str, float] = {}
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Submission / lifecycle
    # ------------------------------------------------------------------
    def submit(self, job: SweepJob) -> str:
        """Queue a job. If the run-table holds a job submitted under the
        same idempotency key, that job's id is returned and nothing new is
        queued — a client retrying a submit whose response was lost gets
        exactly one job. The job's own id never matches itself, which is
        what lets ``resume_open_jobs`` resubmit a keyed job."""
        with self._submit_lock:
            if job.idempotency_key:
                row = self.runtable.job_by_idempotency_key(job.idempotency_key)
                if row is not None and row.job_id != job.job_id:
                    return row.job_id
            job.state = QUEUED
            with self._cond:
                self._jobs[job.job_id] = job
            self.runtable.upsert_job(job)
        self.queue.submit(job)
        self._notify()
        return job.job_id

    def submit_experiment(
        self,
        spec: ExperimentSpec,
        priority: int = 0,
        testbed_seed: int = 1,
        idempotency_key: Optional[str] = None,
    ) -> str:
        job = job_from_experiment(
            spec, priority=priority, testbed_seed=testbed_seed
        )
        job.idempotency_key = idempotency_key
        return self.submit(job)

    def resume_open_jobs(self) -> List[str]:
        """Re-queue every job a previous process left queued or running.

        A row's counters are those of its last transition, so they restart
        from zero: the grant recounts trials that completed before the
        crash from the job's fingerprinted store, and trials a previous
        incarnation quarantined from their run-table rows — neither
        re-executes."""
        resumed = []
        for job in self.runtable.open_jobs():
            if job.job_id in self._jobs:
                continue
            job.state = QUEUED
            job.completed = job.quarantined = 0
            self.submit(job)
            resumed.append(job.job_id)
        return resumed

    def start(self, workers: int = 1) -> None:
        for i in range(workers):
            t = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{i}",),
                name=f"sweep-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop: workers finish their current trial, requeue their
        job, and exit. Queued/requeued jobs stay open in the run-table for
        the next coordinator (the same path a crash takes, minus the mess)."""
        self._stop.set()
        self._notify()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    def cancel(self, job_id: str) -> bool:
        """Request cancellation. Queued jobs cancel immediately; running
        jobs cancel within one trial (the holder reads the verdict). False
        if unknown or already terminal."""
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            job = self.runtable.get_job(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return False
            # Known only to the run-table (not yet resumed): mark it
            # cancelled durably so resume_open_jobs never revives it.
            self._finalize(job, CANCELLED)
            return True
        if job.state in TERMINAL_STATES:
            return False
        job.cancel_requested = True
        if self.queue.cancel(job_id):
            self._finalize(job, CANCELLED)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def testbed(self, seed: int) -> Testbed:
        """The (cached) testbed for a seed — building one is expensive, and
        every job against the same seed shares it."""
        with self._cond:
            tb = self._testbeds.get(seed)
        if tb is None:
            tb = self._testbed_factory(seed)
            with self._cond:
                self._testbeds.setdefault(seed, tb)
                tb = self._testbeds[seed]
        return tb

    def job_progress(self, job_id: str) -> Optional[dict]:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is not None:
            return job.progress()
        rows = self.runtable.job_progress(job_id)
        return rows[0] if rows else None

    def list_jobs(self, limit: int = 50) -> List[dict]:
        """Newest-first job progress dicts (live state wins over rows)."""
        with self._cond:
            live = list(self._jobs.values())
        merged = {p["job_id"]: p for p in self.runtable.job_progress(limit=limit)}
        merged.update((j.job_id, j.progress()) for j in live)
        jobs = sorted(merged.values(), key=lambda p: p["submitted_at"], reverse=True)
        return jobs[:limit]

    def wait(
        self,
        job_id: str,
        cursor: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Optional[dict]:
        """Long-poll a job: block until its progress advances past
        ``cursor`` (completed + quarantined trials) or it reaches
        a terminal state, up to ``timeout`` seconds. ``cursor=None``
        returns the current snapshot immediately. None if unknown."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            progress = self.job_progress(job_id)
            if progress is None:
                return None
            if progress["state"] in TERMINAL_STATES or cursor is None:
                return progress
            if progress["completed"] + progress["quarantined"] > cursor:
                return progress
            with self._cond:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return progress
                self._cond.wait(0.5 if remaining is None else min(remaining, 0.5))

    # ------------------------------------------------------------------
    # Execution: local threads run the Worker that ``cli work`` runs
    # ------------------------------------------------------------------
    def run_once(self, worker_id: str = "worker-inline") -> Optional[SweepJob]:
        """Lease and run (at most) one job synchronously — the unit the
        worker threads loop over, exposed for tests and batch drains."""
        self.queue.reap_expired()
        job = self.queue.lease(worker_id, timeout=0, lease_s=self.lease_s)
        if job is not None:
            self._run_job(worker_id, job)
        return job

    def _worker_loop(self, worker_id: str) -> None:
        while not self._stop.is_set():
            self.queue.reap_expired()
            if self.remote_workers_active():
                # Degradation ladder: a live remote fleet owns execution, so
                # local threads stand down to reaper duty until it goes stale.
                self._stop.wait(0.2)
                continue
            job = self.queue.lease(worker_id, timeout=0.2, lease_s=self.lease_s)
            if job is None:
                continue
            if self.remote_workers_active():
                # A remote worker registered while lease() blocked: hand
                # the job straight back instead of racing the fleet.
                with contextlib.suppress(LeaseLost):
                    self.queue.requeue(job.job_id, worker_id)
                continue
            # An error out of the job fails it; the thread lives on.
            with contextlib.suppress(LeaseLost), self._failing(job, worker_id):
                self._run_job(worker_id, job)

    def _run_job(self, worker_id: str, job: SweepJob) -> None:
        """Run one job ``worker_id`` took from the queue through an
        in-process :class:`~repro.service.worker.Worker`, whose transport
        calls the lease verbs below directly. Cancel, preemption, failure
        and fencing are decided by those verbs, as for a remote worker."""
        from repro.service.http_api import LocalClient
        from repro.service.worker import Worker

        worker = Worker(
            LocalClient(self, job),
            worker_id=worker_id,
            fault_plan=self._fault_plan,
            sleep=self._sleep,
            testbed_factory=self.testbed,
        )
        worker.stop_event = self._stop  # Coordinator.stop drains it exactly
        worker.register()
        worker.run_one()

    # ------------------------------------------------------------------
    # The lease verbs: served over HTTP to remote workers and in-process
    # to the local threads' workers, both through http_api.worker_verb
    # ------------------------------------------------------------------
    def worker_config(self) -> dict:
        """The :data:`HANDSHAKE` every worker runs with."""
        return {key: getattr(self, key) for key in HANDSHAKE}

    def register_worker(self, worker_id: str) -> dict:
        """A remote worker announced itself: returns :meth:`worker_config`.
        Registration is soft state: it expires ``worker_ttl_s`` after the
        worker's last contact and costs nothing to repeat."""
        with self._cond:
            self._remote_workers[worker_id] = time.monotonic()
        return {"worker_id": worker_id, **self.worker_config()}

    def touch_worker(self, worker_id: str) -> None:
        """Refresh a worker's last-seen stamp (every verb calls this)."""
        with self._cond:
            if worker_id in self._remote_workers:
                self._remote_workers[worker_id] = time.monotonic()

    def remote_workers(self) -> List[dict]:
        """Registry snapshot: worker ids, seconds since contact, liveness."""
        now = time.monotonic()
        with self._cond:
            return [
                {
                    "worker_id": wid,
                    "age_s": now - seen,
                    "active": (now - seen) < self.worker_ttl_s,
                }
                for wid, seen in sorted(self._remote_workers.items())
            ]

    def remote_workers_active(self) -> bool:
        """True while at least one registered worker is fresh — the switch
        that stands the local execution threads down."""
        return any(w["active"] for w in self.remote_workers())

    def lease_for_remote(
        self, worker_id: str, timeout: float = 0.0
    ) -> Optional[dict]:
        """Lease the best queued job to a worker and :meth:`grant` it
        (None: nothing to run)."""
        self.touch_worker(worker_id)
        self.queue.reap_expired()
        job = self.queue.lease(worker_id, timeout=timeout, lease_s=self.lease_s)
        return None if job is None else self.grant(job, worker_id)

    def verdict(self, job_id: str) -> str:
        """The server's word on a job, sent with every per-trial reply:
        ``cancel`` once a cancel was requested (the holder acks), ``yield``
        while a strictly higher priority is queued (it requeues), else
        ``continue``."""
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            return CONTINUE
        if job.cancel_requested:
            return CANCEL
        top = self.queue.max_queued_priority()
        return YIELD if top is not None and top > job.priority else CONTINUE

    def remote_heartbeat(self, job_id: str, worker_id: str, token: int) -> None:
        """Extend a lease; :class:`LeaseLost` tells the lease holder its
        lease was reaped (and possibly re-granted) — it must abandon."""
        self.touch_worker(worker_id)
        self.queue.extend(job_id, worker_id, self.lease_s, token=token)

    def record_remote_result(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        result: TrialResult,
        wall: Optional[float] = None,
    ) -> bool:
        """Accept one finished TrialResult from a lease holder.

        Ordered checks make this safe against every replay the fault plan
        can produce: (1) the queue verifies worker *and* fencing token, so
        a zombie's result raises :class:`LeaseLost` before any write; (2)
        the job's store deduplicates by (trial_id, fingerprint), so a
        duplicated upload returns False without touching counters; (3) the
        run-table insert carries the token, so even a write racing the
        reap window is fenced by :class:`~repro.errors.StaleTokenError`.
        Two durable steps: the store append, then the fenced row; the
        progress counter is the live job's. Returns True when the result
        was new. Any other error fails the job (see :meth:`_failing`)."""
        self.touch_worker(worker_id)
        lease = self._held(job_id, worker_id, token)
        job, store = lease["job"], lease["store"]
        with self._failing(job, worker_id, token), lease["lock"]:
            if store.has(result.trial_id, result.fingerprint):
                return False  # duplicated upload: one row, one counter bump
            store.put(result)
            self._save_store(store)
            self._record_ok(job, result, worker_id, token, wall=wall)
        return True

    def record_remote_quarantine(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        trial_id: str,
        fingerprint: str,
        error: str,
        error_class_name: str,
    ) -> None:
        """A lease holder gave up on one trial (permanent failure or
        exhausted retries). Fenced, verified and failed exactly like a
        result."""
        self.touch_worker(worker_id)
        lease = self._held(job_id, worker_id, token)
        job = lease["job"]
        with self._failing(job, worker_id, token), lease["lock"]:
            # Replay dedup, as store.has on the result path: the run-table
            # row witnesses that this (trial, fingerprint) was counted, and
            # grant keeps quarantined trials out of ``pending``.
            if self._quarantined(job, trial_id, fingerprint):
                return
            job.quarantined += 1
            job.error = f"{error_class_name}: {error}"
            self.runtable.record_quarantine(
                job.name, trial_id, fingerprint, error, error_class_name,
                seed=job.testbed_seed, job_id=job.job_id,
                worker_id=worker_id, attempt=job.attempt, token=token,
            )
        self._notify()

    def remote_ack(self, job_id: str, worker_id: str, token: int) -> dict:
        """The lease holder walked every pending trial (or the job was
        cancelled): finalize the job. The terminal state is computed here
        from the counters the verified records built — a holder cannot
        claim completion it did not record. Returns the job's final
        progress dict."""
        self.touch_worker(worker_id)
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise LeaseLost(f"job {job_id} is not live")
        if job.cancel_requested:
            state = CANCELLED
        elif job.quarantined or job.completed < job.total:
            state = DONE_PARTIAL
        else:
            state = DONE
        # Ack verifies worker + token; LeaseLost means the new holder owns
        # the job and this holder's view of it is already history.
        self.queue.ack(job_id, worker_id, token)
        self._finalize(job, state)
        return job.progress()

    def remote_requeue(self, job_id: str, worker_id: str, token: int) -> None:
        """Graceful give-back (stop, preemption, a worker draining for
        shutdown): the job goes back to the queue at its original
        position, progress persisted."""
        self.touch_worker(worker_id)
        with self._cond:
            job = self._jobs.get(job_id)
        self.queue.requeue(job_id, worker_id, token=token)
        if job is not None:
            job.state = QUEUED
            self.runtable.upsert_job(job)
            self._notify()

    # ------------------------------------------------------------------
    # The lease bookkeeping behind the verbs
    # ------------------------------------------------------------------
    def grant(self, job: SweepJob, worker_id: str) -> Optional[dict]:
        """Start ``worker_id``'s lease on a job it just took from the
        queue: ``{"job": SweepJob, "token": int, "pending": [TrialSpec,
        ...]}``, or None when there is nothing to run (cancelled while
        queued, the grant failed, or the lease was lost meanwhile). Cached
        results are recorded under this grant's token and quarantined
        trials counted first, so a resumed job never re-runs or re-hangs on
        what a previous incarnation settled. The job's row is written once,
        after that sweep, and the grant's context goes on the queue entry."""
        token = self.queue.lease_token(job.job_id, worker_id)
        if job.cancel_requested:
            self.remote_ack(job.job_id, worker_id, token)
            return None
        pending: List[TrialSpec] = []
        try:
            with self._failing(job, worker_id, token):
                job.state = RUNNING
                job.started_at = time.time()
                job.completed = job.quarantined = 0
                store = ResultStore(
                    self._store_path(job),
                    testbed_seed=job.testbed_seed,
                    experiment=job.name,
                    fault_hook=self._fault_hook,
                )
                for trial in job.trials:
                    cached = store.get(trial)
                    if cached is not None:
                        self._record_ok(job, cached, worker_id, token,
                                        replace=False)
                    elif self._quarantined(job, trial.trial_id, trial.fingerprint()):
                        job.quarantined += 1
                    else:
                        pending.append(trial)
                self.runtable.upsert_job(job)
                self.queue.attach(job.job_id, worker_id, token, {
                    "job": job, "store": store,
                    # Serializes this lease's records: the has/put/counter
                    # sequence must be atomic against a retransmission
                    # racing its still-in-flight original on another
                    # handler thread.
                    "lock": threading.Lock(),
                })
        except LeaseLost:
            return None
        self._notify()
        return {"job": job, "token": token, "pending": pending}

    @contextlib.contextmanager
    def _failing(
        self, job: SweepJob, worker_id: str, token: Optional[int] = None
    ) -> Iterator[None]:
        """The server-side failure rule. An error that outlived a step's
        own retries (a corrupt store line, a store that would not save)
        and is neither a back-away (:class:`LeaseLost`,
        :class:`~repro.errors.StaleTokenError`) nor an injected crash
        fails ``worker_id``'s job — unless its lease was lost meanwhile —
        and raises :class:`LeaseLost`: the holder backs away."""
        try:
            yield
        except (LeaseLost, StaleTokenError, SimulatedCrash):
            raise
        except Exception as exc:
            with contextlib.suppress(LeaseLost):
                self.queue.ack(job.job_id, worker_id, token)
                job.error = f"coordinator error: {exc}\n{traceback.format_exc()}"
                self._finalize(job, FAILED)
            raise LeaseLost(f"job {job.job_id} failed: {exc}") from exc

    def _held(self, job_id: str, worker_id: str, token: int) -> dict:
        """The grant context ({job, store, lock}) of the lease ``worker_id``
        holds under ``token``; :class:`LeaseLost` if the queue says the
        lease is gone or its grant has not attached one."""
        lease = self.queue.verify(job_id, worker_id, token)
        if lease is None:
            raise LeaseLost(f"job {job_id} has no granted lease for token {token}")
        return lease

    def _quarantined(self, job: SweepJob, trial_id: str, fingerprint: str) -> bool:
        """Whether the run-table holds a quarantined row for this trial on
        the job's world."""
        key = row_fingerprint(fingerprint, job.testbed_seed)
        return self.runtable.trial_status(job.name, trial_id, key) == "quarantined"

    def _record_ok(
        self,
        job: SweepJob,
        result: TrialResult,
        worker_id: str,
        token: int,
        wall: Optional[float] = None,
        replace: bool = True,
    ) -> None:
        self.runtable.record_trial(
            job.name, result, seed=job.testbed_seed, wall_time=wall,
            job_id=job.job_id, replace=replace,
            worker_id=worker_id, attempt=job.attempt, token=token,
        )
        job.completed += 1
        self._notify()
        if self._fault_hook is not None:
            # After the row is durable: a kill/crash here is the
            # worst-timed coordinator death that still loses nothing (the
            # counter is live only; resume recounts it from the store).
            self._fault_hook("coordinator.record", result.trial_id)

    def _save_store(self, store: ResultStore) -> None:
        """Persist the store, absorbing up to two transient write failures
        (full disk that clears, injected OSError). A failed attempt leaves
        the results saved before it readable, and makes the retry a
        whole-file rewrite that repairs whatever the failure tore."""
        for attempt in range(3):
            try:
                store.save()
                return
            except OSError:
                if attempt == 2:
                    raise
                self._sleep(
                    min(BACKOFF_CAP_S, self.backoff_base_s * (2 ** attempt))
                )

    def _finalize(self, job: SweepJob, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        self.runtable.upsert_job(job)
        with self._cond:
            # Terminal jobs live on in the run-table; drop the live ref so
            # a long-lived serve process doesn't accumulate trial lists.
            self._jobs.pop(job.job_id, None)
        self._notify()

    def _store_path(self, job: SweepJob) -> str:
        return os.path.join(self.data_dir, "stores", f"{job.job_id}.json")

    def _notify(self) -> None:
        with self._cond:
            self._cond.notify_all()
