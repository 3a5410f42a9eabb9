"""The sqlite run-table: an indexed store of every trial ever run.

The flat-JSON :class:`~repro.experiments.executor.ResultStore` stays the
executor's *resume* source of truth (it is what fingerprint-keyed caching
reads), but it answers "what ran last week" only by re-parsing whole files.
The run-table is the query side: every completed (or quarantined) trial
lands here as one row — keyed by experiment, trial id and
:func:`row_fingerprint` (the spec's fingerprint with the testbed folded
in), indexed by seed, wall time, and status too, with the full TrialResult
as a JSON payload column — and summary questions (percentiles over any metric,
per-experiment counts, recent runs) become indexed SQL plus a small amount
of Python instead of directory scans.

A second table persists :class:`~repro.service.jobs.SweepJob` descriptors;
jobs still ``queued``/``running`` at startup are what the coordinator
re-queues after a crash. A job row is written at the job's transitions
(submit, grant, requeue, finalize), not per trial. The jobs table is also
the one home of the submit idempotency key, so a retried HTTP submit
deduplicates, even across a coordinator restart.

Crash consistency (see DESIGN.md "Failure domains"):

* the connection runs in WAL mode with ``synchronous=NORMAL`` and a busy
  timeout, so a reader never blocks the writer and a power cut can lose at
  most the tail of the WAL, never corrupt committed pages;
* ``PRAGMA quick_check`` runs at open; a file that fails it is moved aside
  to ``<path>.corrupt-N`` (with its ``-wal``/``-shm`` sidecars) and a
  fresh table is built — ``rebuilt_from`` tells the coordinator to replay
  the flat ResultStores into it;
* every statement goes through :meth:`_exec`, which holds the RLock,
  fires the ``runtable.execute`` fault hook, and retries SQLITE_BUSY with
  exponential backoff (the sleep is injectable, so tests are instant).

sqlite is the right shape here: stdlib (no new deps), single-file, safe
across the coordinator's worker + HTTP threads (one connection behind a
lock), and indexed queries over ~millions of trial rows — while staying
trivially replaceable by a networked store behind the same method surface.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis import stats
from repro.errors import StaleTokenError
from repro.experiments.spec import TrialResult
from repro.service.jobs import QUEUED, RUNNING, SweepJob
from repro.util.rng import stable_hash

_SCHEMA = """
CREATE TABLE IF NOT EXISTS trials (
    experiment  TEXT NOT NULL,
    trial_id    TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    seed        INTEGER,
    wall_time   REAL,
    status      TEXT NOT NULL,
    job_id      TEXT,
    worker_id   TEXT,
    attempt     INTEGER,
    token       INTEGER,
    recorded_at REAL NOT NULL,
    payload     TEXT NOT NULL,
    PRIMARY KEY (experiment, trial_id, fingerprint)
);
CREATE INDEX IF NOT EXISTS idx_trials_experiment ON trials(experiment);
CREATE INDEX IF NOT EXISTS idx_trials_fingerprint ON trials(fingerprint);
CREATE INDEX IF NOT EXISTS idx_trials_seed ON trials(seed);
CREATE INDEX IF NOT EXISTS idx_trials_wall ON trials(wall_time);
CREATE INDEX IF NOT EXISTS idx_trials_status ON trials(status);
CREATE INDEX IF NOT EXISTS idx_trials_recorded ON trials(recorded_at);

CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    name         TEXT NOT NULL,
    priority     INTEGER NOT NULL,
    state        TEXT NOT NULL,
    testbed_seed INTEGER,
    submitted_at REAL,
    started_at   REAL,
    finished_at  REAL,
    completed    INTEGER NOT NULL DEFAULT 0,
    total        INTEGER NOT NULL,
    error        TEXT,
    wire         TEXT NOT NULL,
    idem_key     TEXT,
    quarantined  INTEGER NOT NULL DEFAULT 0,
    attempt      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state);
"""

_TRIAL_COLUMNS = (
    "experiment", "trial_id", "fingerprint", "seed", "wall_time", "status",
    "job_id", "worker_id", "attempt", "token", "recorded_at",
)
#: What a job row holds besides its trial list: the keys of
#: ``SweepJob.progress()``. Only the second group changes while a job
#: runs: ``upsert_job`` rewrites those alone, and readers lay them over the
#: ``wire`` blob, which is written once and keeps the first insert's values.
#: (Files made before the ``failed`` counter was dropped keep its column;
#: nothing writes or reads it.)
_JOB_FIXED = (
    "job_id", "name", "priority", "testbed_seed", "total", "submitted_at",
)
_JOB_MUTABLE = (
    "state", "completed", "quarantined", "attempt", "error",
    "started_at", "finished_at",
)
_JOB_COLUMNS = _JOB_FIXED + _JOB_MUTABLE
_JOB_UPDATE = "UPDATE jobs SET %s WHERE job_id = ?" % ", ".join(
    f"{name} = ?" for name in _JOB_MUTABLE
)
_JOB_INSERT = "INSERT INTO jobs (%s, wire, idem_key) VALUES (%s)" % (
    ", ".join(_JOB_COLUMNS), ", ".join("?" * (len(_JOB_COLUMNS) + 2))
)


def row_fingerprint(fingerprint: str, testbed_seed: Optional[int]) -> str:
    """The key fingerprint of a trial's row: the trial ran on
    ``Testbed(testbed_seed)`` and its spec has ``fingerprint``.

    A spec fingerprint does not name the world the trial ran in, so two
    testbeds that draw the same spec would share one row and the second's
    result would be dropped as a duplicate. The seed is folded in, except
    for testbed 1 and rows recorded without a seed, whose key is the spec
    fingerprint itself: their keys are those of every older row. This is
    the one place the key format lives."""
    if testbed_seed is None or testbed_seed == 1:
        return fingerprint
    return format(stable_hash(fingerprint, "testbed", testbed_seed), "016x")


class RunTable:
    """One sqlite file of trial rows + job descriptors.

    All methods are thread-safe: the coordinator's workers insert while the
    HTTP threads query, through one shared connection behind an RLock —
    every statement is issued inside :meth:`_exec`, never against the raw
    connection, so the audit surface for the locking discipline is one
    method.
    """

    #: SQLITE_BUSY retry schedule: attempts and base backoff (doubles).
    BUSY_ATTEMPTS = 5
    BUSY_BACKOFF_S = 0.05

    def __init__(
        self,
        path: str,
        sleep: Callable[[float], None] = time.sleep,
        fault_hook: Optional[Callable[..., Any]] = None,
    ):
        self.path = path
        self._sleep = sleep
        self.fault_hook = fault_hook
        self._lock = threading.RLock()
        #: Path the corrupt predecessor was quarantined to, or None. The
        #: coordinator checks this at startup and replays the flat stores.
        self.rebuilt_from: Optional[str] = None
        self._conn = self._open(path)
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            self._migrate_locked()

    # ------------------------------------------------------------------
    # Open / integrity / migration
    # ------------------------------------------------------------------
    def _open(self, path: str) -> sqlite3.Connection:
        """Connect with the WAL pragmas; quarantine-and-recreate a file
        that fails ``PRAGMA quick_check``."""
        try:
            conn = self._connect(path)
            row = conn.execute("PRAGMA quick_check").fetchone()
            if row is not None and str(row[0]).lower() == "ok":
                return conn
            conn.close()
        except sqlite3.DatabaseError:
            # Not even a sqlite file (truncated header, garbage bytes).
            pass
        self.rebuilt_from = self._quarantine_file(path)
        return self._connect(path)

    @staticmethod
    def _connect(path: str) -> sqlite3.Connection:
        conn = sqlite3.connect(path, check_same_thread=False)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=5000")
        return conn

    @staticmethod
    def _quarantine_file(path: str) -> str:
        """Move a corrupt db (and WAL/SHM sidecars) to ``.corrupt-N``.
        The evidence is preserved for post-mortem, never deleted."""
        n = 0
        while os.path.exists(f"{path}.corrupt-{n}"):
            n += 1
        target = f"{path}.corrupt-{n}"
        os.replace(path, target)
        for ext in ("-wal", "-shm"):
            if os.path.exists(path + ext):
                os.replace(path + ext, target + ext)
        return target

    def _migrate_locked(self) -> None:
        """Bring a pre-existing file up to the current schema (additive
        only). Caller holds the lock and an open transaction."""
        cols = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(jobs)")
        }
        if "idem_key" not in cols:
            self._conn.execute("ALTER TABLE jobs ADD COLUMN idem_key TEXT")
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_jobs_idem ON jobs(idem_key)"
        )
        if "quarantined" not in cols:
            # These two lived in the wire blob alone while every upsert
            # rewrote it: give them columns and fill them from there.
            for name in ("quarantined", "attempt"):
                self._conn.execute(
                    f"ALTER TABLE jobs ADD COLUMN {name} "
                    f"INTEGER NOT NULL DEFAULT 0"
                )
            for row in self._conn.execute(
                "SELECT job_id, wire FROM jobs"
            ).fetchall():
                wire = json.loads(row["wire"])
                self._conn.execute(
                    "UPDATE jobs SET quarantined = ?, attempt = ? "
                    "WHERE job_id = ?",
                    (wire.get("quarantined", 0), wire.get("attempt", 0),
                     row["job_id"]),
                )
        trial_cols = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(trials)")
        }
        for name, decl in (
            ("worker_id", "TEXT"),
            ("attempt", "INTEGER"),
            ("token", "INTEGER"),
        ):
            if name not in trial_cols:
                self._conn.execute(
                    f"ALTER TABLE trials ADD COLUMN {name} {decl}"
                )

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass  # best-effort: close() must succeed regardless
            self._conn.close()

    # ------------------------------------------------------------------
    # The single statement gateway
    # ------------------------------------------------------------------
    def _exec(self, fn: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run ``fn(conn)`` under the lock, retrying SQLITE_BUSY.

        Busy/locked errors are transient by construction (another process
        holds the write lock briefly), so they are retried here with
        exponential backoff rather than surfacing to every caller. Any
        other OperationalError propagates. The fault hook fires inside the
        retry loop: an injected "database is locked" behaves exactly like
        a real one.
        """
        with self._lock:
            last: Optional[sqlite3.OperationalError] = None
            for attempt in range(self.BUSY_ATTEMPTS):
                try:
                    if self.fault_hook is not None:
                        self.fault_hook("runtable.execute", None)
                    return fn(self._conn)
                except sqlite3.OperationalError as exc:
                    text = str(exc).lower()
                    if "locked" not in text and "busy" not in text:
                        raise
                    last = exc
                    self._sleep(
                        min(self.BUSY_BACKOFF_S * (2 ** attempt), 0.5)
                    )
            assert last is not None
            raise last

    # ------------------------------------------------------------------
    # Trial rows
    # ------------------------------------------------------------------
    def record_trial(
        self,
        experiment: str,
        result: TrialResult,
        seed: Optional[int] = None,
        wall_time: Optional[float] = None,
        job_id: Optional[str] = None,
        recorded_at: Optional[float] = None,
        replace: bool = True,
        worker_id: Optional[str] = None,
        attempt: Optional[int] = None,
        token: Optional[int] = None,
    ) -> bool:
        """Insert one ``ok`` trial row, keyed by (experiment, trial_id,
        :func:`row_fingerprint` of the result on testbed ``seed``). With
        ``replace=False`` an existing row of that key is left untouched — that is
        what keeps a crash-resumed job from overwriting the original rows'
        wall times with cache-hit nulls.

        ``worker_id``/``attempt``/``token`` stamp which lease produced the
        row. A non-None ``token`` additionally *fences* the write: if the
        existing row for the same key carries a strictly larger token, the
        caller's lease was reaped and re-granted since it ran the trial —
        :class:`~repro.errors.StaleTokenError` is raised and nothing is
        written, whatever ``replace`` says. A fenced write that finds an
        existing ``ok`` row returns False (idempotent duplicate) instead of
        overwriting it. Returns True when a row was written."""
        verb = "INSERT OR REPLACE" if replace else "INSERT OR IGNORE"
        key = row_fingerprint(result.fingerprint, seed)
        row = (
            experiment,
            result.trial_id,
            key,
            seed,
            wall_time,
            "ok",
            job_id,
            worker_id,
            attempt,
            token,
            time.time() if recorded_at is None else recorded_at,
            json.dumps(result.to_json()),
        )

        def _do(conn: sqlite3.Connection) -> bool:
            with conn:
                if token is not None:
                    existing = conn.execute(
                        "SELECT status, token FROM trials WHERE "
                        "experiment = ? AND trial_id = ? AND fingerprint = ?",
                        (experiment, result.trial_id, key),
                    ).fetchone()
                    if existing is not None:
                        held = existing["token"]
                        if held is not None and int(held) > token:
                            raise StaleTokenError(
                                f"trial {result.trial_id!r} already recorded "
                                f"under fencing token {held}; rejecting "
                                f"upload with stale token {token}"
                            )
                        if existing["status"] == "ok":
                            return False  # idempotent duplicate
                cur = conn.execute(
                    f"{verb} INTO trials (experiment, trial_id, fingerprint, "
                    f"seed, wall_time, status, job_id, worker_id, attempt, "
                    f"token, recorded_at, payload) "
                    f"VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    row,
                )
                return cur.rowcount > 0

        return bool(self._exec(_do))

    def record_quarantine(
        self,
        experiment: str,
        trial_id: str,
        fingerprint: str,
        error: str,
        error_class: str,
        seed: Optional[int] = None,
        job_id: Optional[str] = None,
        worker_id: Optional[str] = None,
        attempt: Optional[int] = None,
        token: Optional[int] = None,
    ) -> None:
        """A trial the coordinator gave up on: permanent failure, hung
        past its watchdog, or killed its worker twice — "what failed last
        week" is as much a run-table question as "what ran". The error
        *class* is recorded alongside the message so "what kinds of trials
        get quarantined" is one GROUP BY away.

        The row's key is derived from ``fingerprint`` and ``seed`` as
        :meth:`record_trial` derives it. A quarantine never replaces an
        existing ``ok`` row of the same key: resubmitting a sweep as a new
        job re-executes its trials, and a flake must not erase a recorded
        TrialResult from the query side. A later quarantine replaces an
        earlier one, unless the earlier row's token is larger
        (:class:`~repro.errors.StaleTokenError`)."""
        key = row_fingerprint(fingerprint, seed)

        def _do(conn: sqlite3.Connection) -> None:
            with conn:
                row = conn.execute(
                    "SELECT status, token FROM trials WHERE experiment = ? "
                    "AND trial_id = ? AND fingerprint = ?",
                    (experiment, trial_id, key),
                ).fetchone()
                if row is not None:
                    if row["status"] == "ok":
                        return
                    held = row["token"]
                    if (
                        token is not None
                        and held is not None
                        and int(held) > token
                    ):
                        raise StaleTokenError(
                            f"trial {trial_id!r} already recorded under "
                            f"fencing token {held}; rejecting quarantine "
                            f"write with stale token {token}"
                        )
                conn.execute(
                    "INSERT OR REPLACE INTO trials (experiment, trial_id, "
                    "fingerprint, seed, wall_time, status, job_id, "
                    "worker_id, attempt, token, recorded_at, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        experiment, trial_id, key, seed, None,
                        "quarantined", job_id, worker_id, attempt, token,
                        time.time(),
                        json.dumps({"error": error, "error_class": error_class}),
                    ),
                )

        self._exec(_do)

    def prune(
        self,
        max_age_s: Optional[float] = None,
        max_keep: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Retention: delete old trial rows, then checkpoint the WAL.

        ``max_age_s`` drops rows recorded longer ago than that; ``max_keep``
        keeps only the newest N rows (both may combine). Rows belonging to a
        still-open job (``queued``/``running`` in the jobs table) are never
        pruned, whatever their age — a crash-resume must always find its
        predecessor's rows. After compaction the WAL is checkpointed with
        TRUNCATE so the reclaimed space actually leaves the disk instead of
        sitting in the sidecar file. Returns the number of rows deleted.
        """
        if max_age_s is None and max_keep is None:
            return 0
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        if max_keep is not None and max_keep < 0:
            raise ValueError(f"max_keep must be >= 0, got {max_keep}")
        cutoff = (
            None
            if max_age_s is None
            else (time.time() if now is None else now) - max_age_s
        )
        open_clause = (
            "(job_id IS NULL OR job_id NOT IN "
            "(SELECT job_id FROM jobs WHERE state IN (?, ?)))"
        )

        def _do(conn: sqlite3.Connection) -> int:
            deleted = 0
            with conn:
                if cutoff is not None:
                    cur = conn.execute(
                        f"DELETE FROM trials WHERE recorded_at < ? "
                        f"AND {open_clause}",
                        (cutoff, QUEUED, RUNNING),
                    )
                    deleted += cur.rowcount
                if max_keep is not None:
                    cur = conn.execute(
                        f"DELETE FROM trials WHERE {open_clause} "
                        f"AND rowid NOT IN (SELECT rowid FROM trials "
                        f"ORDER BY recorded_at DESC, rowid DESC LIMIT ?)",
                        (QUEUED, RUNNING, int(max_keep)),
                    )
                    deleted += cur.rowcount
            return deleted

        deleted = int(self._exec(_do))
        self._exec(
            lambda conn: conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        )
        return deleted

    def trial_status(
        self, experiment: str, trial_id: str, fingerprint: str
    ) -> Optional[str]:
        """The recorded status of one trial (None if never recorded) —
        what lets a resumed job skip a trial already quarantined by a
        previous incarnation instead of hanging on it again.
        ``fingerprint`` is the row's key, :func:`row_fingerprint`."""
        row = self._exec(
            lambda conn: conn.execute(
                "SELECT status FROM trials WHERE experiment = ? AND "
                "trial_id = ? AND fingerprint = ?",
                (experiment, trial_id, fingerprint),
            ).fetchone()
        )
        return None if row is None else str(row["status"])

    def trial_count(
        self,
        experiment: Optional[str] = None,
        status: Optional[str] = None,
    ) -> int:
        sql = "SELECT COUNT(*) FROM trials"
        where, args = self._where(experiment=experiment, status=status)
        (n,) = self._exec(
            lambda conn: conn.execute(sql + where, args).fetchone()
        )
        return int(n)

    def max_token(self) -> int:
        """The largest fencing token any persisted row carries (0 when no
        fenced row exists). The queue's token counter is re-seeded from
        this at coordinator startup so a restart can never mint a token
        the table has already seen — see
        :meth:`~repro.service.queue.InMemoryJobQueue.advance_tokens`."""
        (m,) = self._exec(
            lambda conn: conn.execute(
                "SELECT MAX(token) FROM trials"
            ).fetchone()
        )
        return 0 if m is None else int(m)

    def counts_by_experiment(self) -> Dict[str, int]:
        rows = self._exec(
            lambda conn: conn.execute(
                "SELECT experiment, COUNT(*) AS n FROM trials "
                "GROUP BY experiment ORDER BY experiment"
            ).fetchall()
        )
        return {row["experiment"]: int(row["n"]) for row in rows}

    def recent_runs(
        self,
        limit: int = 20,
        experiment: Optional[str] = None,
        status: Optional[str] = None,
        with_payload: bool = False,
    ) -> List[dict]:
        """Newest-first trial rows (metadata only unless asked)."""
        where, args = self._where(experiment=experiment, status=status)
        cols = ", ".join(_TRIAL_COLUMNS) + (", payload" if with_payload else "")
        rows = self._exec(
            lambda conn: conn.execute(
                f"SELECT {cols} FROM trials{where} "
                f"ORDER BY recorded_at DESC, trial_id DESC LIMIT ?",
                args + [int(limit)],
            ).fetchall()
        )
        out = []
        for row in rows:
            d = {k: row[k] for k in _TRIAL_COLUMNS}
            if with_payload:
                d["payload"] = json.loads(row["payload"])
            out.append(d)
        return out

    def results(self, experiment: str) -> List[TrialResult]:
        """Every successful trial of an experiment, insertion-ordered.
        Only ``ok`` rows carry a TrialResult payload — quarantined rows
        hold error records, not results."""
        rows = self._exec(
            lambda conn: conn.execute(
                "SELECT payload FROM trials WHERE experiment = ? AND "
                "status = 'ok' ORDER BY rowid",
                (experiment,),
            ).fetchall()
        )
        return [TrialResult.from_json(json.loads(r["payload"])) for r in rows]

    # ------------------------------------------------------------------
    # Summary queries
    # ------------------------------------------------------------------
    def metric_values(self, experiment: str, metric: str) -> List[float]:
        """Extract one numeric metric from every successful trial.

        ``metric`` addresses the payload:

        * ``total_mbps`` — sum of the trial's per-flow throughputs,
        * ``mbps:S-D`` — one flow's throughput (source S, destination D),
        * anything else — a numeric entry of the trial's ``metrics`` dict.

        Trials lacking the metric are skipped (not an error): experiments
        mix protocols, and e.g. ``concurrency`` exists only on CMAP trials.
        """
        values: List[float] = []
        for res in self.results(experiment):
            value = _extract_metric(res, metric)
            if value is not None:
                values.append(value)
        return values

    def percentiles(
        self, experiment: str, metric: str, qs: Sequence[float]
    ) -> Dict[float, float]:
        """Percentiles of a metric across an experiment's trials, computed
        with the same :func:`repro.analysis.stats.percentile` the figure
        reducers use — so the service's summaries are definitionally
        consistent with the in-process analysis path."""
        values = self.metric_values(experiment, metric)
        if not values:
            return {}
        return {float(q): stats.percentile(values, q) for q in qs}

    def summary(self, experiment: str, metric: str) -> Optional[dict]:
        """count/mean/std/median/p10..p90 of a metric (None if no data)."""
        values = self.metric_values(experiment, metric)
        if not values:
            return None
        s = stats.summarize(values)
        return {
            "count": s.count, "mean": s.mean, "std": s.std,
            "median": s.median, "p10": s.p10, "p25": s.p25,
            "p75": s.p75, "p90": s.p90,
        }

    # ------------------------------------------------------------------
    # Jobs table
    # ------------------------------------------------------------------
    def upsert_job(self, job: SweepJob) -> None:
        """Persist a job's current state at a transition (submit, grant,
        requeue, finalize): O(1) in its trial count. The trial list is
        serialised by the first call for a job and never again; every later
        call updates the progress columns only."""
        progress = [getattr(job, name) for name in _JOB_MUTABLE]

        def _do(conn: sqlite3.Connection) -> None:
            with conn:
                if conn.execute(_JOB_UPDATE, progress + [job.job_id]).rowcount:
                    return
                conn.execute(
                    _JOB_INSERT,
                    [getattr(job, name) for name in _JOB_FIXED]
                    + progress
                    + [json.dumps(job.to_wire()), job.idempotency_key],
                )

        self._exec(_do)

    def _select_jobs(
        self, columns: Sequence[str], where: str, args: Sequence[Any]
    ) -> List[sqlite3.Row]:
        sql = f"SELECT {', '.join(columns)} FROM jobs {where}"
        return self._exec(lambda conn: conn.execute(sql, args).fetchall())

    def _jobs_where(self, where: str, args: Sequence[Any]) -> List[SweepJob]:
        """Decode job rows: the wire blob with the live columns laid over
        it, i.e. exactly the SweepJob last handed to ``upsert_job``."""
        jobs = []
        for row in self._select_jobs(("wire",) + _JOB_MUTABLE, where, args):
            wire = json.loads(row["wire"])
            wire.update((name, row[name]) for name in _JOB_MUTABLE)
            jobs.append(SweepJob.from_wire(wire))
        return jobs

    def get_job(self, job_id: str) -> Optional[SweepJob]:
        jobs = self._jobs_where("WHERE job_id = ?", (job_id,))
        return jobs[0] if jobs else None

    def job_by_idempotency_key(self, key: str) -> Optional[SweepJob]:
        """The earliest job submitted under ``key`` (None if unseen) — the
        home of submit dedup, so a client retrying a submit whose response
        was lost gets the original job back, even across a coordinator
        restart."""
        jobs = self._jobs_where(
            "WHERE idem_key = ? ORDER BY submitted_at, job_id LIMIT 1", (key,)
        )
        return jobs[0] if jobs else None

    def list_jobs(
        self, limit: int = 50, states: Optional[Sequence[str]] = None
    ) -> List[SweepJob]:
        where, args = "", []
        if states:
            where = "WHERE state IN (%s) " % ",".join("?" * len(states))
            args.extend(states)
        return self._jobs_where(
            where + "ORDER BY submitted_at DESC LIMIT ?", args + [int(limit)]
        )

    def job_progress(
        self, job_id: Optional[str] = None, limit: int = 50
    ) -> List[dict]:
        """``SweepJob.progress()`` dicts straight from the columns, newest
        first (or the one job asked for) — what status endpoints and
        long-polls read, without decoding a single trial."""
        where, args = self._where(job_id=job_id)
        rows = self._select_jobs(
            _JOB_COLUMNS,
            where + " ORDER BY submitted_at DESC LIMIT ?",
            args + [int(limit)],
        )
        return [{name: row[name] for name in _JOB_COLUMNS} for row in rows]

    def open_jobs(self) -> List[SweepJob]:
        """Jobs a previous coordinator left queued or running — the
        crash-resume work list, oldest first."""
        jobs = self.list_jobs(limit=10_000, states=(QUEUED, RUNNING))
        return sorted(jobs, key=lambda j: j.submitted_at)

    # ------------------------------------------------------------------
    # Migration from flat-file stores
    # ------------------------------------------------------------------
    def ingest_store(
        self,
        store,
        experiment: str,
        job_id: Optional[str] = None,
        replace: bool = False,
    ) -> int:
        """Import a :class:`~repro.experiments.executor.ResultStore`'s
        cached results as run-table rows (the flat-JSON -> sqlite migration
        path)."""
        n = 0
        for result in store.results():
            self.record_trial(
                experiment,
                result,
                seed=store.testbed_seed,
                job_id=job_id,
                replace=replace,
            )
            n += 1
        return n

    def rebuild_from_stores(self, stores_dir: str) -> int:
        """Repopulate trial rows from the flat ResultStores under
        ``stores_dir`` — the recovery path after a corrupt db was
        quarantined at open. Stores that fail to parse, and stores written
        before the experiment name was persisted, are skipped (the flat
        files stay authoritative either way). Returns rows ingested."""
        from repro.experiments.executor import ResultStore

        n = 0
        if not os.path.isdir(stores_dir):
            return n
        for fname in sorted(os.listdir(stores_dir)):
            if not fname.endswith(".json"):
                continue
            try:
                store = ResultStore(os.path.join(stores_dir, fname))
            except (OSError, ValueError, KeyError):
                continue
            if not store.experiment:
                continue
            n += self.ingest_store(store, store.experiment, replace=False)
        return n

    # ------------------------------------------------------------------
    @staticmethod
    def _where(**filters) -> "tuple[str, List[Any]]":
        clauses, args = [], []
        for column, value in filters.items():
            if value is not None:
                clauses.append(f"{column} = ?")
                args.append(value)
        return (" WHERE " + " AND ".join(clauses)) if clauses else "", args


def _extract_metric(res: TrialResult, metric: str) -> Optional[float]:
    if metric == "total_mbps":
        return float(sum(res.flow_mbps.values())) if res.flow_mbps else None
    if metric.startswith("mbps:"):
        try:
            s, d = metric[len("mbps:"):].split("-")
            return float(res.flow_mbps[(int(s), int(d))])
        except (ValueError, KeyError):
            return None
    value = res.metrics.get(metric)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)
