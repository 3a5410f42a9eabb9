"""Error taxonomy: every failure is either transient or permanent.

The sweep service (coordinator, run-table, workers, HTTP client)
recovers from failures by retrying — but retrying is only correct for
failures that can heal on their own. The simulation itself is a pure
deterministic function of (testbed, spec): a ``ValueError`` raised inside
a trial will raise identically on every retry, so re-running it burns the
retry budget and delays the sweep for nothing. I/O and infrastructure
failures (a locked sqlite file, a full disk, a dropped socket) are the
opposite: the second attempt usually succeeds. The ``cli <figure>
--jobs`` process pool does not retry: any failure there, a dead worker
included, ends the run, and ``--resume`` continues it.

:func:`classify` encodes that split for arbitrary exceptions, and the
:class:`ReproError` hierarchy lets our own code state its class
explicitly. The sweep service's policy (the coordinator sets it, every
worker applies it — see ``repro.service.worker``):

* transient → retry with capped backoff, against a per-job retry budget;
* permanent (or transient with the budget exhausted) → **quarantine** the
  trial: record it in the run-table with status ``quarantined`` and its
  error class, count it, and move on. One poisoned trial must never fail
  or stall an entire sweep — the job finishes ``done_partial``.
"""

from __future__ import annotations

import sqlite3

TRANSIENT = "transient"
PERMANENT = "permanent"


class ReproError(Exception):
    """Base class for errors raised by the repro stack itself.

    ``transient`` states the retry class explicitly; subclasses override.
    """

    transient = False


class TransientError(ReproError):
    """A failure that can heal on its own — retrying is correct."""

    transient = True


class PermanentError(ReproError):
    """A failure that will reproduce on every retry — quarantine instead."""

    transient = False


class TrialHungError(PermanentError):
    """A trial exceeded its wall-clock watchdog budget.

    Permanent: the simulation is deterministic, so a trial that hung once
    hangs every time — re-running it would wedge another worker for
    another full timeout. The watchdog turns it into a quarantined row.
    """


class StaleTokenError(PermanentError):
    """A write arrived carrying a fencing token older than one already
    recorded for the same row.

    Permanent by definition: the token only moves forward, so the caller
    is a zombie — a worker whose lease was reaped during a partition and
    re-granted (possibly to itself) — and retrying the same write can
    never succeed. The correct response is to abandon the job, not retry;
    the current holder owns every further write. The run-table raises this
    as the last line of defense behind the queue's lease check (the two
    can disagree only in the window between reap and re-grant).
    """


class SimulatedCrash(ReproError):
    """Raised by a fault plan's ``crash`` action: an in-process stand-in
    for ``kill -9`` that test harnesses (and ``cli chaos``) catch to
    exercise the crash-resume path without losing the process."""

    transient = False


#: Exception types whose instances heal on retry even though they are not
#: ReproErrors: OS-level I/O (OSError covers ConnectionError and — since
#: 3.10 — TimeoutError), sqlite lock contention, and a pipe closed
#: mid-message.
_TRANSIENT_TYPES: "tuple[type, ...]" = (
    OSError,
    TimeoutError,
    sqlite3.OperationalError,
    EOFError,
)


def is_transient(exc: BaseException) -> bool:
    """True when retrying ``exc`` could plausibly succeed."""
    if isinstance(exc, ReproError):
        return exc.transient
    return isinstance(exc, _TRANSIENT_TYPES)


def classify(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` — the retry class of ``exc``."""
    return TRANSIENT if is_transient(exc) else PERMANENT


def error_class(exc: BaseException) -> str:
    """The short class name recorded next to quarantined trials."""
    return type(exc).__name__
