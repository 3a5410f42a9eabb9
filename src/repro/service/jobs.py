"""The service's job model: a sweep's trials plus queueing metadata.

A :class:`SweepJob` wraps the trial list of one
:class:`~repro.experiments.spec.ExperimentSpec` with everything the
coordinator needs to schedule it: a priority, a state machine, per-trial
progress counters, and the testbed seed the trials must run against.

State machine::

    queued -> running -> done
       ^         |   \\-> done_partial (some trials quarantined, rest ok)
       |         |   \\-> failed       (coordinator-level error)
       |         |   \\-> cancelled    (cancel honored between trials)
       \\--------/                     (preempted / requeued / crash-resumed)

Jobs serialize to a wire dict (via the TrialSpec wire format) so they can
arrive over HTTP and be persisted in the run-table's jobs table — which is
what lets a restarted coordinator re-queue anything left open by a crash.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.spec import ExperimentSpec, TrialSpec

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
#: Every trial has an outcome, but some were quarantined (permanent
#: failures, hung trials, worker-killers) — the sweep is usable, not whole.
DONE_PARTIAL = "done_partial"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, DONE_PARTIAL, FAILED, CANCELLED})

ALL_STATES = frozenset({QUEUED, RUNNING}) | TERMINAL_STATES

#: The server's verdict on a leased job, sent with every per-trial reply
#: (see ``Coordinator.verdict``): go on, stop and ack, or requeue.
CONTINUE = "continue"
CANCEL = "cancel"
YIELD = "yield"


@dataclass
class SweepJob:
    """One queued sweep: trials + priority + live progress.

    ``priority`` is higher-runs-first; ties break FIFO by submission. The
    progress counters (``completed``/``quarantined``) live here, in the
    live job: the coordinator bumps them per trial and writes them to the
    job's run-table row only at transitions (submit, grant, requeue,
    finalize). They include trials served from the fingerprinted store (or
    already-quarantined run-table rows) on resume, so ``completed +
    quarantined == total`` always means "every trial has an outcome",
    however many processes it took to get there.

    ``idempotency_key`` is the client-chosen dedup token: the coordinator
    refuses to create a second job for a key its run-table has seen, which
    is what makes retried HTTP submits safe.
    """

    job_id: str
    name: str
    trials: List[TrialSpec]
    priority: int = 0
    testbed_seed: int = 1
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    completed: int = 0
    quarantined: int = 0
    #: Lease-grant count: bumped by the queue on every grant (first run,
    #: re-lease after a reap, resume after a crash). Recorded next to each
    #: run-table row so "which attempt produced this row" is queryable.
    attempt: int = 0
    error: Optional[str] = None
    idempotency_key: Optional[str] = None
    #: Set by cancel(); the holder reads it as the ``cancel`` verdict.
    cancel_requested: bool = field(default=False, compare=False)

    @property
    def total(self) -> int:
        return len(self.trials)

    def progress(self) -> dict:
        """The JSON-ready view the HTTP status/tail endpoints serve."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "state": self.state,
            "priority": self.priority,
            "testbed_seed": self.testbed_seed,
            "total": self.total,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "attempt": self.attempt,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    # ------------------------------------------------------------------
    # Wire format (HTTP submit + run-table persistence)
    # ------------------------------------------------------------------
    def header(self) -> dict:
        """The wire job without its trials: what a lease reply carries
        beside the trials still pending, so each trial crosses once."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "priority": self.priority,
            "testbed_seed": self.testbed_seed,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "attempt": self.attempt,
            "error": self.error,
            "idempotency_key": self.idempotency_key,
        }

    def to_wire(self) -> dict:
        return {**self.header(), "trials": [t.to_wire() for t in self.trials]}

    @classmethod
    def from_wire(cls, obj: dict) -> "SweepJob":
        state = obj.get("state", QUEUED)
        if state not in ALL_STATES:
            raise ValueError(f"unknown job state {state!r}")
        return cls(
            job_id=str(obj["job_id"]),
            name=str(obj["name"]),
            trials=[TrialSpec.from_wire(t) for t in obj["trials"]],
            priority=int(obj.get("priority", 0)),
            testbed_seed=int(obj.get("testbed_seed", 1)),
            state=state,
            submitted_at=obj.get("submitted_at", 0.0),
            started_at=obj.get("started_at"),
            finished_at=obj.get("finished_at"),
            completed=int(obj.get("completed", 0)),
            quarantined=int(obj.get("quarantined", 0)),
            attempt=int(obj.get("attempt", 0)),
            error=obj.get("error"),
            idempotency_key=obj.get("idempotency_key"),
        )


def new_job(
    name: str,
    trials: List[TrialSpec],
    priority: int = 0,
    testbed_seed: int = 1,
    job_id: Optional[str] = None,
    now: Optional[float] = None,
    idempotency_key: Optional[str] = None,
) -> SweepJob:
    """Mint a fresh queued job (random id, submission timestamp)."""
    if not trials:
        raise ValueError(f"job {name!r} has no trials")
    return SweepJob(
        job_id=job_id or uuid.uuid4().hex[:12],
        name=name,
        trials=list(trials),
        priority=priority,
        testbed_seed=testbed_seed,
        submitted_at=time.time() if now is None else now,
        idempotency_key=idempotency_key,
    )


def job_from_experiment(
    spec: ExperimentSpec,
    priority: int = 0,
    testbed_seed: int = 1,
    job_id: Optional[str] = None,
) -> SweepJob:
    """Wrap an in-process ExperimentSpec as a submittable job. The spec's
    ``reduce`` stays behind (the service works at trial granularity)."""
    return new_job(
        spec.name,
        list(spec.trials),
        priority=priority,
        testbed_seed=testbed_seed,
        job_id=job_id,
    )
