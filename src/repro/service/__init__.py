"""Sweep-as-a-service: a long-running experiment coordinator.

The simulator's executor layer (specs, backends, ResultStore) runs one
blocking sweep per CLI invocation. This package turns it into a service
that absorbs concurrent experiment requests:

* :mod:`repro.service.jobs` — :class:`SweepJob`: an experiment's trials
  plus priority and a queued/running/done/done_partial/failed/cancelled
  state machine with completed/quarantined counters.
* :mod:`repro.service.queue` — a lease/ack/requeue priority queue. The
  in-memory implementation is single-host, but the interface is
  multi-host-shaped: a worker that dies mid-lease has its job requeued
  when the lease expires.
* :mod:`repro.service.coordinator` — serves the lease verbs: streams
  TrialResults into the per-job ResultStore and the run-table as they
  complete, tells each holder to cancel or yield to a higher priority,
  fails a job whose store breaks, deduplicates submits by idempotency
  key, and crash-resumes open jobs from the fingerprinted store.
* :mod:`repro.service.worker` — the one trial loop, run over HTTP (``cli
  work``) or in-process (the coordinator's threads): transient failures
  retry on the coordinator's policy, permanent ones are quarantined.
* :mod:`repro.service.runtable` — the sqlite run-table (WAL,
  integrity-checked at open, rebuildable from the flat stores): every
  trial row indexed by (experiment, trial id, fingerprint, seed, wall
  time, status), with percentile/summary queries replacing flat-file
  scans.
* :mod:`repro.service.http_api` — stdlib HTTP server + client: submit a
  sweep (wire-format spec or named builder) with idempotent retries,
  long-poll job progress, cancel, and query the run-table.
* :mod:`repro.service.faults` — deterministic fault injection: a
  serializable :class:`FaultPlan` fired through optional hooks at every
  layer above, for chaos tests and the ``cli chaos`` soak.

See DESIGN.md ("Service", "Failure domains") for the architecture and
EXPERIMENTS.md for ``cli serve`` / ``submit`` / ``tail`` / ``runs`` /
``chaos`` usage.
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    DONE_PARTIAL,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    SweepJob,
    new_job,
)
from repro.service.queue import InMemoryJobQueue
from repro.service.runtable import RunTable
from repro.service.coordinator import Coordinator
from repro.service.faults import (
    FaultPlan,
    FaultRule,
    build_soak_plan,
    canned_plan,
)
from repro.service.http_api import ServiceClient, make_server

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "DONE_PARTIAL",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "SweepJob",
    "new_job",
    "InMemoryJobQueue",
    "RunTable",
    "Coordinator",
    "FaultPlan",
    "FaultRule",
    "build_soak_plan",
    "canned_plan",
    "ServiceClient",
    "make_server",
]
