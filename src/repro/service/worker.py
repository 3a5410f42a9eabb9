"""The service's one trial loop: a worker leases jobs and runs them.

One :class:`Worker` is the client half of the lease protocol the
coordinator serves (``http_api.worker_verb``): ``cli work`` runs it over
HTTP (:class:`~repro.service.http_api.ServiceClient`), the coordinator's
own threads over :class:`~repro.service.http_api.LocalClient`, which calls
the same verbs in-process::

    caller thread   register ─> lease ─> run trial n ─> read reply n-1 ─┐
                                  ^         ^    send verb n (upload, or │
                                  │         │    quarantine) ────────────┘
                                  │         └─── per pending trial
                                  └── read the last reply; ack (all trials
                                      walked, or cancel) / requeue (yield,
                                      draining) / abandon (lease lost)

    heartbeat thread  ───── (background, every min(lease_s, worker_ttl_s)/3)

The loop is a one-deep pipeline on one thread: the worker sends trial
*n*'s verb, computes *n+1* while the server records *n*, then reads *n*'s
reply and sends *n+1*'s. Sends never wait or retry; every retry and
backoff happens when a reply is read. In flight at any moment: at most one
trial being computed and one verb unanswered, in trial order on one
kept-alive connection — so a killed worker loses at most two trials, both
re-executed bit-identically by the next lease holder. The loop changes
course only at trial boundaries, as each reply's ``verdict`` says
(``cancel``: no more trials, then ack; ``yield``: requeue; missing:
continue) — read one trial late, so within one trial — or as the worker's
own ``stop_event`` says, exactly. The job's outcome is decided only after
the last reply was read: ``ack`` follows every upload answered
``recorded``, ``requeue`` follows every finished trial uploaded.

Safety rests on three server-side properties, so the worker itself can be
dumb and stateless:

* every lease carries a **fencing token**; the worker attaches it to every
  verb, and the first 409 reply (``lease_lost`` / ``stale_token``) means
  the lease was reaped during a partition, or the server failed the job —
  the worker *abandons* the job on the spot and sends nothing further;
* uploads are **idempotent**: the coordinator dedups by (trial_id,
  fingerprint) under the token, so the worker resends on transport
  failures freely — a truncated response or a duplicated send lands one
  row, and a reply read one trial late is as good as one read at once;
* the terminal state is computed by the server from verified uploads at
  ``ack`` — a worker cannot claim progress it did not upload, and
  because ``ack`` follows the last reply, never progress still in flight.

Trials retry under the policy of :mod:`repro.service.coordinator`: its
module caps, and the backoff base the register handshake carries. The fault
wrapper :meth:`Worker._send` fires the fault sites ``worker.request`` /
``worker.upload`` / ``worker.heartbeat`` (actions ``drop``, ``delay``,
``truncate``, ``duplicate`` — see ``repro.service.faults``), which is how
CI injects partitions, slow links, and duplicated uploads
deterministically; the trials fire ``trial.run``.

Execution is serial and in-process: the *fleet* is the parallelism unit
(one daemon per core/host), and serial execution keeps results
bit-identical to ``SerialBackend`` by construction.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import error_class
from repro.experiments.executor import run_trial, run_with_retries
from repro.experiments.spec import TrialSpec
from repro.net.testbed import Testbed
from repro.service import coordinator
from repro.service.faults import FaultPlan
from repro.service.http_api import ApiError, ServiceClient
from repro.service.jobs import CANCEL, CONTINUE, YIELD

#: What reads a sent verb's reply (``Reply.result``).
_Reader = Callable[[], Any]
#: What puts a verb's request on the wire and returns its reader.
_Sender = Callable[[], _Reader]
#: A per-trial verb: (trial id, stats counter, sender).
_Verb = Tuple[str, str, _Sender]

#: Outcomes of Worker.run_one (also its return values).
IDLE = None            # nothing leased
ACKED = "acked"        # walked every trial, server finalized the job
ABANDONED = "abandoned"  # lease lost (or server unreachable): backed away
REQUEUED = "requeued"  # gave the job back: a yield verdict, or draining

#: Resends of one per-trial verb on transport failures before the worker
#: backs away from the lease.
UPLOAD_RETRIES = 2


def _answered(out: Any) -> _Reader:
    """What reads the reply of a verb that was answered at once."""
    return lambda: out


def default_worker_id() -> str:
    """host-pid-suffix: unique per daemon, readable in run-table rows."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class Worker:
    """One worker bound to a transport (:class:`ServiceClient` or
    :class:`~repro.service.http_api.LocalClient`).

    ``fault_plan`` fires in this worker's transport and trials; a
    ``cli work`` daemon's plan is independent of whatever plan the server
    runs. ``sleep`` is injectable so retry/poll tests are instant.
    """

    def __init__(
        self,
        client: ServiceClient,
        worker_id: Optional[str] = None,
        poll_s: float = 1.0,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
        testbed_factory: Callable[[int], Testbed] = None,
    ):
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self._fault_hook = None if fault_plan is None else fault_plan.fire
        self._sleep = sleep
        self._testbed_factory = testbed_factory or (
            lambda seed: Testbed(seed=seed)
        )
        self._testbeds: Dict[int, Testbed] = {}
        #: The HANDSHAKE, filled by register (until then: the
        #: coordinator's defaults, and a 60 s lease).
        self.lease_s: float = 60.0
        self.worker_ttl_s: float = 60.0
        self.trial_timeout_s: Optional[float] = None
        self.backoff_base_s = 0.1
        self.stop_event = threading.Event()
        #: Counters for the daemon's exit report (and tests).
        self.stats = {"jobs": 0, "acked": 0, "abandoned": 0,
                      "trials": 0, "uploaded": 0, "quarantined": 0}

    # ------------------------------------------------------------------
    # Transport wrapper: where the worker.* fault sites live
    # ------------------------------------------------------------------
    def _send(self, site: str, key: Optional[str], send: _Sender) -> _Reader:
        """Send one HTTP verb through the fault plan; returns what reads
        its reply.

        ``delay`` already slept inside ``fire``, before the send; ``drop``
        fails before the bytes leave (a partition), raised when the reply
        is read; ``truncate`` reads the reply and loses it; ``duplicate``
        sends again once the first reply is in and returns the *second*
        reply — the replayed request is the one whose answer the caller
        sees, exactly the retransmission case the fenced, idempotent
        server must absorb."""
        rule = None if self._fault_hook is None else self._fault_hook(site, key)
        action = None if rule is None else rule.action
        receive = None if action == "drop" else send()

        def result() -> Any:
            if receive is None:
                raise OSError(f"injected: {site} dropped before send")
            out = receive()
            if action == "truncate":
                raise OSError(f"injected: {site} response truncated")
            if action == "duplicate":
                out = send()()
            return out

        return result

    def _call(self, site: str, key: Optional[str], fn: Callable[[], Any]) -> Any:
        """One verb sent and answered at once (all but the per-trial ones)."""
        return self._send(site, key, lambda: _answered(fn()))()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(self, retries: int = 5) -> dict:
        """Handshake: announce this worker, adopt the server's lease
        length and worker ttl (together they drive the heartbeat cadence),
        its trial watchdog budget and its retry backoff base."""
        last: Optional[Exception] = None
        for attempt in range(retries):
            try:
                cfg = self._call(
                    "worker.request", "register",
                    lambda: self.client.register_worker(self.worker_id),
                )
                for key in coordinator.HANDSHAKE:
                    setattr(self, key, cfg.get(key, getattr(self, key)))
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
        # The job arrives as its header (SweepJob.header): the trials to
        # run are the pending ones, each on the wire once.
        header = leased["job"]
        job_id = str(header["job_id"])
        token = int(leased["token"])
        pending = [TrialSpec.from_wire(t) for t in leased["pending"]]
        testbed = self._testbed(int(header["testbed_seed"]))

        lost = threading.Event()
        stop_hb = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(job_id, token, lost, stop_hb),
            name=f"hb-{job_id}",
            daemon=True,
        )
        hb.start()
        #: Transient-retry budget every trial of this lease draws from.
        budget = {"left": coordinator.RETRY_BUDGET}
        verdict = CONTINUE
        give_back = False
        # The previous trial's verb and what reads its reply: unanswered.
        inflight: Optional[Tuple[_Verb, _Reader]] = None
        try:
            for trial in pending:
                # Trial boundary: the only places a worker changes course.
                if lost.is_set() or verdict == CANCEL:
                    break
                if verdict == YIELD or self.stop_event.is_set():
                    give_back = True
                    break
                result, wall, exc = run_with_retries(
                    run_trial, testbed, trial,
                    max_retries=coordinator.MAX_RETRIES,
                    backoff_base_s=self.backoff_base_s,
                    backoff_cap_s=coordinator.BACKOFF_CAP_S,
                    sleep=self._sleep, budget=budget,
                    timeout_s=self.trial_timeout_s,
                    fault_hook=self._fault_hook,
                )
                self.stats["trials"] += 1
                if inflight is not None:
                    # Depth 1: the previous verb is answered before this one
                    # leaves, so a kill loses at most two trials.
                    verdict = self._deliver(*inflight, lost)
                    inflight = None
                    if lost.is_set():
                        break
                verb = self._verb(job_id, token, trial, result, wall, exc)
                inflight = verb, self._send("worker.upload", verb[0], verb[2])
            if inflight is not None and not lost.is_set():
                self._deliver(*inflight, lost)
                inflight = None
        finally:
            if inflight is not None:
                # A reply nobody will read: the socket can carry no other.
                self.client.disconnect()
            stop_hb.set()
            hb.join(timeout=5.0)
        # Every verb sent has now been answered (or the lease was lost):
        # only here is the job's outcome decided.
        if lost.is_set():
            return ABANDONED
        return self._close(job_id, token, requeue=give_back)

    def _heartbeat_loop(
        self,
        job_id: str,
        token: int,
        lost: threading.Event,
        stop: threading.Event,
    ) -> None:
        """Extend the lease, and stay in the server's registry of live
        workers, three times per ``min(lease_s, worker_ttl_s)``. A 409 sets
        ``lost`` — the back-away signal the trial loop checks at every
        boundary. A transport failure (dropped beat) is absorbed: the lease
        outlives a few missed beats, and a partition long enough to matter
        ends in the reap + 409 this loop exists to detect."""
        interval = max(0.1, min(self.lease_s, self.worker_ttl_s) / 3.0)
        try:
            while not stop.wait(interval):
                try:
                    self._call(
                        "worker.heartbeat", job_id,
                        lambda: self.client.heartbeat(job_id, self.worker_id, token),
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
    def _verb(self, job_id, token, trial, result, wall, exc) -> _Verb:
        """The trial's fenced verb: upload its result, or quarantine it."""
        if result is not None:
            wire = result.to_json()
            return trial.trial_id, "uploaded", lambda: self.client.send_upload(
                job_id, self.worker_id, token, wire, wall=wall
            ).result
        exc = exc if exc is not None else RuntimeError("unknown error")
        return trial.trial_id, "quarantined", lambda: self.client.send_quarantine(
            job_id, self.worker_id, token, trial.trial_id, trial.fingerprint(),
            str(exc), error_class(exc),
        ).result

    def _deliver(self, verb: _Verb, receive: _Reader, lost: threading.Event) -> str:
        """Read the reply of one fenced, idempotent per-trial verb (upload
        or quarantine), resending it on transport failures, and return the
        server's verdict on the job. Sets ``lost`` to back away: on a 409,
        or when the server is unreachable past the retry budget — the
        lease will be reaped, and re-sending later would be fenced. A
        non-409 :class:`ApiError` is raised."""
        trial_id, stat, send = verb
        for attempt in range(UPLOAD_RETRIES + 1):
            try:
                reply = receive()
                self.stats[stat] += 1
                return reply.get("verdict", CONTINUE)
            except ApiError as exc:
                if exc.status != 409:
                    raise
                lost.set()
                return CONTINUE
            except OSError:
                if attempt == UPLOAD_RETRIES or lost.is_set():
                    lost.set()
                    return CONTINUE
                self._sleep(min(2.0, 0.2 * (2 ** attempt)))
                receive = self._send("worker.upload", trial_id, send)

    def _close(self, job_id: str, token: int, requeue: bool) -> str:
        """End the lease: ``requeue`` gives the job back, else ``ack``."""
        send = self.client.requeue_job if requeue else self.client.ack_job
        try:
            self._call("worker.request", "requeue" if requeue else "ack",
                       lambda: send(job_id, self.worker_id, token))
        except (ApiError, OSError):
            # 409: someone else owns the job now. Transport-dead: the
            # lease will be reaped and the (fully uploaded) job re-leased,
            # where the server-side cache sweep finishes it without
            # re-running anything. Either way: back away.
            return ABANDONED
        return REQUEUED if requeue else ACKED

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
