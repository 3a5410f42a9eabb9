"""Job queue with lease/ack/requeue semantics.

The interface is deliberately multi-host-shaped even though the first
implementation is an in-process structure: a worker *leases* a job for a
bounded time, must *ack* it when finished, and a lease that expires without
an ack (worker death) puts the job back in the queue for someone else.
Swapping in a networked queue (redis, SQS, a second sqlite table polled by
remote workers) changes this module only — the coordinator is written
against exactly these five verbs.

Ordering: higher ``priority`` first; FIFO (by submission sequence) within a
priority. A requeued job keeps its original sequence number, so preemption
and worker death never push a job behind later submissions of equal
priority.

Ownership: ``ack``/``requeue``/``extend`` take the ``worker_id`` the lease
was granted to and raise :class:`LeaseLost` if that worker no longer holds
it — a worker whose lease expired and was re-granted fails fast instead of
silently corrupting the new holder's run. Acked and cancelled entries are
deleted outright, so the queue does not grow with job history.

Fencing: every lease grant additionally mints a **fencing token** from one
queue-wide monotonic counter (:meth:`InMemoryJobQueue.lease_token` reads
the current holder's). A re-granted lease always carries a strictly larger
token than every grant before it, so any layer that records the token with
its writes (the run-table does) can reject a partitioned worker's late
upload by simple integer comparison — the worker-id check alone cannot,
because the *same* worker can lose and re-win a lease across a partition
and would pass an identity check while still holding stale state.
``ack``/``requeue``/``extend`` take an optional ``token`` and raise
:class:`LeaseLost` when it is not the current grant's.

Lease context: the entry is the one home of a lease. Besides its holder,
expiry and token it carries the context its grant attached
(:meth:`InMemoryJobQueue.attach`: the coordinator's job store and record
lock). ``verify`` returns it; a requeue or a reap clears it.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.service.jobs import SweepJob


class LeaseLost(ValueError):
    """Raised when a worker acts on a lease it no longer holds (the lease
    expired and was reaped, possibly re-granted to another worker)."""


class _Entry:
    __slots__ = ("job", "seq", "state", "leased_to", "lease_expiry", "token",
                 "context")

    def __init__(self, job: SweepJob, seq: int):
        self.job = job
        self.seq = seq
        self.state = "queued"  # queued | leased
        self.leased_to: Optional[str] = None
        self.lease_expiry: float = 0.0
        #: Fencing token of the current (or last) grant; 0 = never leased.
        self.token: int = 0
        #: What the current grant attached (None until it does).
        self.context: object = None

    def release(self) -> None:
        """Back to queued: the holder and its context are gone."""
        self.state = "queued"
        self.leased_to = None
        self.context = None


class InMemoryJobQueue:
    """Single-process lease queue (threading.Condition under the hood).

    ``clock`` is injectable (monotonic seconds) so lease-expiry behavior is
    testable without real waiting.
    """

    def __init__(
        self,
        default_lease_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.default_lease_s = default_lease_s
        self._clock = clock
        self._entries: Dict[str, _Entry] = {}
        self._seq = itertools.count()
        #: Queue-wide fencing counter: one grant = one token, strictly
        #: increasing across every job, worker, and re-grant.
        self._tokens = itertools.count(1)
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # The five queue verbs
    # ------------------------------------------------------------------
    def submit(self, job: SweepJob) -> str:
        with self._cond:
            if job.job_id in self._entries:
                raise ValueError(f"job {job.job_id} is already queued")
            self._entries[job.job_id] = _Entry(job, next(self._seq))
            self._cond.notify_all()
        return job.job_id

    def lease(
        self,
        worker_id: str,
        timeout: Optional[float] = None,
        lease_s: Optional[float] = None,
    ) -> Optional[SweepJob]:
        """Take the best queued job, or block up to ``timeout`` for one.

        Returns None on timeout. The caller owns the job until ``ack`` /
        ``requeue`` or until the lease expires (``reap_expired``).
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                entry = self._best_queued_locked()
                if entry is not None:
                    entry.state = "leased"
                    entry.leased_to = worker_id
                    entry.lease_expiry = self._clock() + (
                        lease_s if lease_s is not None else self.default_lease_s
                    )
                    entry.token = next(self._tokens)
                    entry.job.attempt += 1
                    return entry.job
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def ack(
        self, job_id: str, worker_id: str, token: Optional[int] = None
    ) -> None:
        """The leased job reached a terminal state; drop it from the queue.
        Raises :class:`LeaseLost` if ``worker_id`` (with ``token``, when
        given) no longer holds the lease (expired and reaped, possibly
        re-granted)."""
        with self._cond:
            self._leased_entry_locked(job_id, worker_id, token)
            del self._entries[job_id]

    def requeue(
        self, job_id: str, worker_id: str, token: Optional[int] = None
    ) -> None:
        """Voluntarily give a leased job back (preemption, graceful stop).

        The job keeps its original submission sequence, so it resumes at the
        head of its priority class rather than behind newer submissions.
        Raises :class:`LeaseLost` if ``worker_id`` no longer holds the lease.
        """
        with self._cond:
            self._leased_entry_locked(job_id, worker_id, token).release()
            self._cond.notify_all()

    def extend(
        self,
        job_id: str,
        worker_id: str,
        lease_s: Optional[float] = None,
        token: Optional[int] = None,
    ) -> None:
        """Heartbeat: push the lease expiry out (long trials mid-job).
        Raises :class:`LeaseLost` if ``worker_id`` no longer holds the
        lease — the heartbeat doubles as the "do I still own this job?"
        check the coordinator makes at every trial boundary."""
        with self._cond:
            entry = self._leased_entry_locked(job_id, worker_id, token)
            entry.lease_expiry = self._clock() + (
                lease_s if lease_s is not None else self.default_lease_s
            )

    def lease_token(self, job_id: str, worker_id: str) -> int:
        """The fencing token of ``worker_id``'s current lease on ``job_id``.
        Raises :class:`LeaseLost` if that worker does not hold the lease —
        callers fetch the token right after :meth:`lease` and attach it to
        every downstream write."""
        with self._cond:
            return self._leased_entry_locked(job_id, worker_id).token

    def attach(
        self, job_id: str, worker_id: str, token: int, context: object
    ) -> None:
        """Hang the grant's ``context`` on ``worker_id``'s lease (under
        ``token``); :meth:`verify` hands it back until the lease ends.
        Raises :class:`LeaseLost` if that grant is already gone."""
        with self._cond:
            entry = self._leased_entry_locked(job_id, worker_id, token)
            entry.context = context

    def verify(
        self, job_id: str, worker_id: str, token: Optional[int] = None
    ) -> object:
        """Assert ``worker_id`` (holding ``token``, when given) still owns
        the lease and return what its grant attached (None if nothing yet);
        raises :class:`LeaseLost` otherwise. The read-only verb upload
        handlers call before accepting a result."""
        with self._cond:
            return self._leased_entry_locked(job_id, worker_id, token).context

    def advance_tokens(self, floor: int) -> None:
        """Ensure every future grant's token is strictly greater than
        ``floor``. The coordinator calls this at startup with the largest
        token the run-table ever persisted: the counter is in-memory and
        restarts at 1, but the fence rows survive — without re-seeding, a
        resumed job's fresh grants would mint tokens *smaller* than its
        own durable rows and every legitimate upload would bounce off
        :class:`~repro.errors.StaleTokenError` until the counter caught
        up. No-op when ``floor`` is behind the counter already."""
        with self._cond:
            nxt = next(self._tokens)
            self._tokens = itertools.count(max(nxt, floor + 1))

    def current_token(self, job_id: str) -> int:
        """The token of the newest grant of ``job_id`` (0 if never leased,
        or if the job already left the queue). Diagnostic only: by the time
        the caller looks at it the grant may have changed again."""
        with self._cond:
            entry = self._entries.get(job_id)
            return 0 if entry is None else entry.token

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def reap_expired(self) -> List[str]:
        """Requeue every job whose lease expired without an ack — the
        worker that held it is presumed dead. Returns the requeued ids."""
        now = self._clock()
        reaped = []
        with self._cond:
            for entry in self._entries.values():
                if entry.state == "leased" and entry.lease_expiry <= now:
                    entry.release()
                    reaped.append(entry.job.job_id)
            if reaped:
                self._cond.notify_all()
        return reaped

    def force_expire(self, job_id: str) -> bool:
        """Expire a live lease immediately (fault injection / admin): the
        job goes back to queued and the old holder's next ``extend`` or
        ``ack`` raises :class:`LeaseLost`. Returns True if a lease was
        actually expired."""
        with self._cond:
            entry = self._entries.get(job_id)
            if entry is None or entry.state != "leased":
                return False
            entry.release()
            entry.lease_expiry = 0.0
            self._cond.notify_all()
            return True

    def cancel(self, job_id: str) -> bool:
        """Cancel a job. Queued jobs leave the queue immediately (returns
        True); leased jobs get ``cancel_requested`` set for the coordinator
        to honor at the next trial boundary (returns False)."""
        with self._cond:
            entry = self._entries.get(job_id)
            if entry is None:
                return False
            entry.job.cancel_requested = True
            if entry.state == "queued":
                del self._entries[job_id]
                return True
            return False

    def max_queued_priority(self) -> Optional[int]:
        """The highest priority currently waiting (None if queue is empty).
        The coordinator polls this between trials to decide preemption."""
        with self._cond:
            entry = self._best_queued_locked()
            return None if entry is None else entry.job.priority

    def queued_count(self) -> int:
        with self._cond:
            return sum(1 for e in self._entries.values() if e.state == "queued")

    def get(self, job_id: str) -> Optional[SweepJob]:
        with self._cond:
            entry = self._entries.get(job_id)
            return None if entry is None else entry.job

    # ------------------------------------------------------------------
    def _best_queued_locked(self) -> Optional[_Entry]:
        best = None
        for entry in self._entries.values():
            if entry.state != "queued":
                continue
            key = (-entry.job.priority, entry.seq)
            if best is None or key < (-best.job.priority, best.seq):
                best = entry
        return best

    def _leased_entry_locked(
        self, job_id: str, worker_id: str, token: Optional[int] = None
    ) -> _Entry:
        entry = self._entries.get(job_id)
        if entry is None or entry.state != "leased":
            state = None if entry is None else entry.state
            raise LeaseLost(f"job {job_id} is not leased (state={state})")
        if entry.leased_to != worker_id:
            raise LeaseLost(
                f"job {job_id} is leased to {entry.leased_to!r}, "
                f"not {worker_id!r}"
            )
        if token is not None and token != entry.token:
            # Same worker, different grant: it lost the lease during a
            # partition and won it back — identity passes, the token
            # must not. (Tokens only grow, so != means stale.)
            raise LeaseLost(
                f"job {job_id} lease token is {entry.token}, "
                f"caller presented stale token {token}"
            )
        return entry
