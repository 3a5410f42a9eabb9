"""Remote worker daemon: leases jobs over HTTP and executes them locally.

One :class:`Worker` is the client half of the lease protocol the
coordinator serves (``/workers/*`` in ``http_api.py``)::

    trial thread      register ──> lease ──> run trial ──> hand over ──┐
                                     ^          ^──────────────│───────┘
                                     │           (per pending  │ outbox,
                                     │            trial)       v depth 1
    uploader thread                  │                upload, or quarantine
                                     │                (permanent failure)
                                     │
    trial thread                     └── ack (all trials walked) / requeue
                                         (draining) / abandon (lease lost)
                                         <── join uploader

    heartbeat thread  ───────────────── (background, every lease_s/3)

The loop is a one-deep pipeline: the trial thread hands each finished
trial to the job's single uploader thread and starts the next one, so the
upload of trial *n* (a round trip, the server's fsync and sqlite commits)
overlaps the compute of *n+1* instead of idling the worker. In flight at
any moment: at most one trial being computed and one verb being sent —
the hand-over waits until the previous verb has been answered. Verbs go
out in trial order over the uploader's one kept-alive connection. A
killed worker therefore loses at most two trials' work (the one being
computed, the one not yet answered); both are re-executed bit-identically
by the next lease holder. The trial loop still changes course only at
trial boundaries, and the job's outcome is decided only after the
uploader has been joined: ``ack`` is sent after every upload was answered
``recorded``, ``requeue`` after every finished trial was uploaded.

Safety rests on three server-side properties, so the worker itself can be
dumb and stateless:

* every lease carries a **fencing token**; the worker attaches it to every
  verb, and the first 409 reply (``lease_lost`` / ``stale_token``) means
  the lease was reaped during a partition — the worker *abandons* the job
  on the spot: the uploader sends nothing further, not even a result
  already handed over (the new holder owns the job);
* uploads are **idempotent**: the coordinator dedups by (trial_id,
  fingerprint) under the token, so the worker retries transport failures
  freely — a truncated response or a duplicated send lands one row;
* the terminal state is computed by the server from verified uploads at
  ``ack`` — a worker cannot claim progress it did not upload, and
  because ``ack`` follows the join, never progress still in flight.

The transport wrapper :meth:`Worker._call` fires the fault sites
``worker.request`` / ``worker.upload`` / ``worker.heartbeat`` (actions
``drop``, ``delay``, ``truncate``, ``duplicate`` — see
``repro.service.faults``), which is how CI injects partitions, slow
links, and duplicated uploads deterministically.

Execution is serial and in-process: the *fleet* is the parallelism unit
(one daemon per core/host), and serial execution keeps results
bit-identical to ``SerialBackend`` by construction.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import error_class
from repro.experiments.executor import run_trial, run_with_retries
from repro.experiments.spec import TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.service.faults import FaultPlan
from repro.service.http_api import ApiError, ServiceClient
from repro.service.jobs import SweepJob

#: Trial results handed to the uploader thread and not yet answered. A
#: constant, not a knob: an upload (~1 ms) is an order of magnitude shorter
#: than the shortest trial the service runs (~7 ms), so a deeper window buys
#: nothing and only widens the work a kill loses.
UPLOAD_DEPTH = 1

#: What the trial thread hands over: (trial id, stats counter, the call).
_Verb = Tuple[str, str, Callable[[], Any]]

#: Outcomes of Worker.run_one (also its return values).
IDLE = None            # nothing leased
ACKED = "acked"        # walked every trial, server finalized the job
ABANDONED = "abandoned"  # lease lost (or server unreachable): backed away
REQUEUED = "requeued"  # graceful give-back while draining


def default_worker_id() -> str:
    """host-pid-suffix: unique per daemon, readable in run-table rows."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class Worker:
    """One worker daemon bound to a :class:`ServiceClient`.

    ``fault_plan`` here is the *worker-side* plan: its ``worker.*`` sites
    fire in this process's transport, independent of whatever plan the
    server runs. ``sleep`` is injectable so retry/poll tests are instant.
    """

    def __init__(
        self,
        client: ServiceClient,
        worker_id: Optional[str] = None,
        poll_s: float = 1.0,
        upload_retries: int = 2,
        trial_retries: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
        testbed_factory: Callable[[int], Testbed] = None,
    ):
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self.upload_retries = upload_retries
        self.trial_retries = trial_retries
        self._fault_hook = None if fault_plan is None else fault_plan.fire
        self._sleep = sleep
        self._testbed_factory = testbed_factory or (
            lambda seed: Testbed(seed=seed)
        )
        self._testbeds: Dict[int, Testbed] = {}
        #: Filled by the register handshake.
        self.lease_s: float = 60.0
        self.trial_timeout_s: Optional[float] = None
        self.stop_event = threading.Event()
        #: Counters for the daemon's exit report (and tests).
        self.stats = {"jobs": 0, "acked": 0, "abandoned": 0,
                      "trials": 0, "uploaded": 0, "quarantined": 0}

    # ------------------------------------------------------------------
    # Transport wrapper: where the worker.* fault sites live
    # ------------------------------------------------------------------
    def _call(self, site: str, key: Optional[str], fn: Callable[[], Any]) -> Any:
        """Run one HTTP call through the fault plan.

        ``delay`` already slept inside ``fire``; ``drop`` fails before the
        bytes leave (a partition); ``truncate`` performs the call but loses
        the response; ``duplicate`` performs it twice and returns the
        *second* reply — the replayed request is the one whose answer the
        caller sees, exactly the retransmission case the fenced,
        idempotent server must absorb."""
        rule = None
        if self._fault_hook is not None:
            rule = self._fault_hook(site, key)
        if rule is not None and rule.action == "drop":
            raise OSError(f"injected: {site} dropped before send")
        out = fn()
        if rule is not None and rule.action == "truncate":
            raise OSError(f"injected: {site} response truncated")
        if rule is not None and rule.action == "duplicate":
            out = fn()
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(self, retries: int = 5) -> dict:
        """Handshake: announce this worker, adopt the server's lease
        length (drives heartbeat cadence) and trial watchdog budget."""
        last: Optional[Exception] = None
        for attempt in range(retries):
            try:
                cfg = self._call(
                    "worker.request", "register",
                    lambda: self.client.register_worker(self.worker_id),
                )
                self.lease_s = float(cfg.get("lease_s", self.lease_s))
                timeout = cfg.get("trial_timeout_s")
                self.trial_timeout_s = (
                    None if timeout is None else float(timeout)
                )
                return cfg
            except OSError as exc:
                last = exc
                self._sleep(min(2.0, 0.2 * (2 ** attempt)))
        assert last is not None
        raise last

    def run(
        self,
        max_jobs: Optional[int] = None,
        idle_exit_s: Optional[float] = None,
    ) -> int:
        """The daemon loop: poll-lease-execute until told to stop.

        ``max_jobs`` bounds how many jobs this worker takes (tests, CI);
        ``idle_exit_s`` exits after that long without work (lets a CI
        fleet drain and leave). Returns the number of jobs taken."""
        try:
            self.register()
            taken = 0
            idle_since = time.monotonic()
            while not self.stop_event.is_set():
                if max_jobs is not None and taken >= max_jobs:
                    break
                outcome = self.run_one(timeout=self.poll_s)
                if outcome is IDLE:
                    if (
                        idle_exit_s is not None
                        and time.monotonic() - idle_since >= idle_exit_s
                    ):
                        break
                    continue
                taken += 1
                idle_since = time.monotonic()
            return taken
        finally:
            self.client.close()

    def stop(self) -> None:
        """Ask the daemon loop to exit after the current job (the current
        job is *requeued* at the next trial boundary, not abandoned)."""
        self.stop_event.set()

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    def run_one(self, timeout: float = 0.0) -> Optional[str]:
        """Lease and execute at most one job. Returns None (nothing
        queued / transport down), else one of ``acked`` / ``abandoned`` /
        ``requeued``."""
        try:
            leased = self._call(
                "worker.request", "lease",
                lambda: self.client.lease_job(self.worker_id, timeout=timeout),
            )
        except (OSError, ApiError):
            self._sleep(self.poll_s)
            return IDLE
        if not leased or leased.get("job") is None:
            return IDLE
        self.stats["jobs"] += 1
        outcome = self._execute(leased)
        self.stats[outcome] = self.stats.get(outcome, 0) + 1
        return outcome

    def _execute(self, leased: dict) -> str:
        job = SweepJob.from_wire(leased["job"])
        token = int(leased["token"])
        pending = [TrialSpec.from_wire(t) for t in leased["pending"]]
        testbed = self._testbed(job.testbed_seed)

        lost = threading.Event()
        stop_hb = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.job_id, token, lost, stop_hb),
            name=f"hb-{job.job_id}",
            daemon=True,
        )
        outbox: "queue.Queue" = queue.Queue(maxsize=UPLOAD_DEPTH)
        errors: List[BaseException] = []
        uploader = threading.Thread(
            target=self._upload_loop,
            args=(outbox, lost, errors),
            name=f"up-{job.job_id}",
            daemon=True,
        )
        hb.start()
        uploader.start()
        draining = False
        try:
            for trial in pending:
                # Trial boundary: the only places a worker changes course.
                if lost.is_set() or errors:
                    break
                if self.stop_event.is_set():
                    draining = True
                    break
                # A small transient-retry loop: first-line absorption (the
                # server also quarantines what this worker reports).
                result, wall, exc = run_with_retries(
                    run_trial, testbed, trial,
                    max_retries=self.trial_retries,
                    backoff_base_s=0.1, backoff_cap_s=2.0,
                    sleep=self._sleep, timeout_s=self.trial_timeout_s,
                )
                self.stats["trials"] += 1
                if result is not None:
                    verb = self._upload_verb(job.job_id, token, result, wall)
                else:
                    verb = self._quarantine_verb(job.job_id, token, trial, exc)
                # Depth 1: wait until the previous trial's verb has been
                # answered, so a kill loses this trial and the one being
                # computed, never more.
                outbox.join()
                outbox.put(verb)
        finally:
            outbox.put(None)
            uploader.join()
            stop_hb.set()
            hb.join(timeout=5.0)
        # Every verb handed over has now been answered (or dropped because
        # the lease was lost): only here is the job's outcome decided.
        if errors:
            raise errors[0]
        if lost.is_set():
            return ABANDONED
        if draining:
            return self._requeue(job.job_id, token)
        return self._ack(job.job_id, token)

    def _upload_loop(
        self,
        outbox: "queue.Queue",
        lost: threading.Event,
        errors: List[BaseException],
    ) -> None:
        """The uploader thread: send each handed-over verb, in order, while
        the trial thread computes the next trial. After the first 409 (or
        an error) it sends nothing more but keeps emptying the outbox, so
        the trial thread never blocks on a full queue; ``None`` ends it."""
        try:
            while True:
                verb = outbox.get()
                try:
                    if verb is None:
                        return
                    if not lost.is_set() and not errors:
                        self._deliver(verb, lost)
                except BaseException as exc:
                    # Re-raised on the trial thread once this one is joined.
                    errors.append(exc)
                finally:
                    outbox.task_done()
        finally:
            self.client.disconnect()

    def _heartbeat_loop(
        self,
        job_id: str,
        token: int,
        lost: threading.Event,
        stop: threading.Event,
    ) -> None:
        """Extend the lease every ``lease_s / 3``. A 409 sets ``lost`` —
        the back-away signal the trial loop checks at every boundary. A
        transport failure (dropped beat) is absorbed: the lease outlives
        a few missed beats, and a partition long enough to matter ends in
        the reap + 409 this loop exists to detect."""
        interval = max(0.1, self.lease_s / 3.0)
        try:
            while not stop.wait(interval):
                try:
                    self._call(
                        "worker.heartbeat", job_id,
                        lambda: self.client.heartbeat(
                            job_id, self.worker_id, token
                        ),
                    )
                except ApiError as exc:
                    if exc.status == 409:
                        lost.set()
                        return
                except OSError:
                    continue
        finally:
            self.client.disconnect()

    # ------------------------------------------------------------------
    # The fenced verbs
    # ------------------------------------------------------------------
    def _upload_verb(
        self,
        job_id: str,
        token: int,
        result: TrialResult,
        wall: Optional[float],
    ) -> _Verb:
        wire = result.to_json()
        return result.trial_id, "uploaded", lambda: self.client.upload_result(
            job_id, self.worker_id, token, wire, wall=wall
        )

    def _quarantine_verb(
        self,
        job_id: str,
        token: int,
        trial: TrialSpec,
        exc: Optional[BaseException],
    ) -> _Verb:
        exc = exc if exc is not None else RuntimeError("unknown error")
        return trial.trial_id, "quarantined", lambda: (
            self.client.quarantine_trial(
                job_id, self.worker_id, token,
                trial.trial_id, trial.fingerprint(),
                str(exc), error_class(exc),
            )
        )

    def _deliver(self, verb: _Verb, lost: threading.Event) -> None:
        """One fenced, idempotent per-trial verb (upload or quarantine)
        with transport retries. Sets ``lost`` to back away: on a 409, or
        when the server is unreachable past the retry budget — the lease
        will be reaped, and re-sending later would be fenced."""
        trial_id, stat, send = verb
        for attempt in range(self.upload_retries + 1):
            try:
                self._call("worker.upload", trial_id, send)
                self.stats[stat] += 1
                return
            except ApiError as exc:
                if exc.status != 409:
                    raise
                lost.set()
                return
            except OSError:
                if attempt == self.upload_retries:
                    lost.set()
                    return
                self._sleep(min(2.0, 0.2 * (2 ** attempt)))

    def _ack(self, job_id: str, token: int) -> str:
        try:
            self._call(
                "worker.request", "ack",
                lambda: self.client.ack_job(job_id, self.worker_id, token),
            )
            return ACKED
        except (ApiError, OSError):
            # 409: someone else owns the job now. Transport-dead: the
            # lease will be reaped and the (fully uploaded) job re-leased,
            # where the server-side cache sweep finishes it without
            # re-running anything. Either way: back away.
            return ABANDONED

    def _requeue(self, job_id: str, token: int) -> str:
        try:
            self._call(
                "worker.request", "requeue",
                lambda: self.client.requeue_job(
                    job_id, self.worker_id, token
                ),
            )
            return REQUEUED
        except (ApiError, OSError):
            return ABANDONED

    # ------------------------------------------------------------------
    def _testbed(self, seed: int) -> Testbed:
        tb = self._testbeds.get(seed)
        if tb is None:
            tb = self._testbed_factory(seed)
            self._testbeds[seed] = tb
        return tb


__all__ = [
    "Worker",
    "default_worker_id",
    "ACKED",
    "ABANDONED",
    "REQUEUED",
]
