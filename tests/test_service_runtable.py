"""Run-table behavior: recording, queries, percentile parity, job rows,
and the crash-consistency envelope (busy retries, corruption quarantine,
rebuild from flat stores, concurrent writers)."""

import json
import sqlite3
import threading

import pytest

from repro.analysis import stats
from repro.experiments.executor import ResultStore
from repro.experiments.spec import MacSpec, TrialResult, TrialSpec
from repro.service.jobs import DONE, QUEUED, RUNNING, SweepJob, new_job
from repro.service.runtable import RunTable, row_fingerprint


def _result(i, mbps=None, metrics=None, fingerprint=None):
    return TrialResult(
        trial_id=f"t/{i}",
        flow_mbps={(0, 1): 1.0 + i} if mbps is None else mbps,
        metrics=metrics or {},
        fingerprint=fingerprint or f"fp{i}",
    )


def _trial(tid="t/0"):
    return TrialSpec(tid, (0, 1), ((0, 1),), MacSpec.of("dcf"), 0, 4.0, 1.0)


@pytest.fixture
def table(tmp_path):
    rt = RunTable(str(tmp_path / "runs.sqlite"))
    yield rt
    rt.close()


class TestTrialRows:
    def test_record_and_count(self, table):
        for i in range(4):
            table.record_trial("fig12", _result(i), seed=1, wall_time=0.5)
        assert table.trial_count() == 4
        assert table.trial_count(experiment="fig12") == 4
        assert table.trial_count(experiment="other") == 0
        assert table.counts_by_experiment() == {"fig12": 4}

    def test_same_trial_ids_in_two_experiments_both_persist(self, table):
        """Regression: the PK is (experiment, trial_id, fingerprint) — two
        experiments reusing trial ids and fingerprints must not clobber
        each other's rows."""
        for exp in ("a", "b"):
            for i in range(3):
                table.record_trial(exp, _result(i))
        assert table.counts_by_experiment() == {"a": 3, "b": 3}

    def test_rows_of_two_testbeds_do_not_collide(self, table):
        """The testbed seed is part of a row's key: one spec recorded on
        two worlds keeps two rows. Testbed 1 and seedless rows keep the
        spec fingerprint as their key, as every older row does."""
        assert row_fingerprint("fp0", 1) == row_fingerprint("fp0", None) == "fp0"
        assert row_fingerprint("fp0", 2) not in ("fp0", row_fingerprint("fp0", 3))
        for seed in (1, 2):
            assert table.record_trial("e", _result(0), seed=seed, token=seed)
        assert table.trial_count(experiment="e") == 2
        for seed in (1, 2):
            key = row_fingerprint("fp0", seed)
            assert table.trial_status("e", "t/0", key) == "ok"
        table.record_quarantine("e", "t/0", "fp0", "flake", "OSError", seed=3)
        assert table.trial_status("e", "t/0", row_fingerprint("fp0", 3)) == (
            "quarantined"
        )
        assert table.trial_status("e", "t/0", "fp0") == "ok"

    def test_replace_false_keeps_the_original_row(self, table):
        table.record_trial("e", _result(0), wall_time=2.5)
        table.record_trial("e", _result(0), wall_time=None, replace=False)
        (row,) = table.recent_runs(experiment="e")
        assert row["wall_time"] == 2.5
        table.record_trial("e", _result(0), wall_time=9.0, replace=True)
        (row,) = table.recent_runs(experiment="e")
        assert row["wall_time"] == 9.0

    def test_recent_runs_newest_first_with_payload(self, table):
        for i in range(3):
            table.record_trial("e", _result(i), recorded_at=100.0 + i)
        rows = table.recent_runs(limit=2, with_payload=True)
        assert [r["trial_id"] for r in rows] == ["t/2", "t/1"]
        assert rows[0]["payload"]["flow_mbps"] == [[0, 1, 3.0]]

    def test_failed_rows_recorded_but_excluded_from_results(self, table):
        table.record_trial("e", _result(0))
        table.record_quarantine("e", "t/1", "fp1", "KeyError: 'nope'",
                                "KeyError")
        assert table.trial_count(experiment="e") == 2
        assert table.trial_count(experiment="e", status="quarantined") == 1
        assert [r.trial_id for r in table.results("e")] == ["t/0"]
        (row,) = table.recent_runs(experiment="e", status="quarantined",
                                   with_payload=True)
        assert row["payload"]["error"] == "KeyError: 'nope'"

    def test_failure_never_replaces_a_successful_row(self, table):
        """A resubmitted sweep re-executes its trials; a transient flake
        in the rerun must not erase the recorded TrialResult."""
        ok = _result(0)
        table.record_trial("e", ok, job_id="job-1")
        table.record_quarantine("e", ok.trial_id, ok.fingerprint, "flake",
                                "OSError", job_id="job-2")
        (row,) = table.recent_runs(experiment="e")
        assert row["status"] == "ok"
        assert table.results("e") == [ok]
        # with no ok row the quarantine lands, and a later one replaces it
        table.record_quarantine("e", "t/9", "fp9", "first", "OSError")
        table.record_quarantine("e", "t/9", "fp9", "second", "ValueError")
        (qrow,) = table.recent_runs(experiment="e", status="quarantined",
                                    with_payload=True)
        assert qrow["payload"]["error"] == "second"

    def test_results_round_trip(self, table):
        original = _result(0, metrics={"concurrency": 0.8})
        table.record_trial("e", original)
        (back,) = table.results("e")
        assert back == original


class TestSummaries:
    def test_percentiles_match_analysis_stats(self, table):
        values = [0.5, 1.25, 2.0, 3.5, 5.0, 7.25, 9.0]
        for i, v in enumerate(values):
            table.record_trial("e", _result(i, mbps={(0, 1): v}))
        for q in (10, 50, 90):
            expected = stats.percentile(values, q)
            assert table.percentiles("e", "total_mbps", [q])[q] == expected

    def test_metric_addressing(self, table):
        table.record_trial("e", TrialResult(
            "t/0", {(0, 1): 2.0, (2, 3): 3.0},
            metrics={"concurrency": 0.75, "label": "skipme", "flag": True},
            fingerprint="fp"))
        assert table.metric_values("e", "total_mbps") == [5.0]
        assert table.metric_values("e", "mbps:2-3") == [3.0]
        assert table.metric_values("e", "concurrency") == [0.75]
        # non-numeric / bool / absent metrics are skipped, not errors
        assert table.metric_values("e", "label") == []
        assert table.metric_values("e", "flag") == []
        assert table.metric_values("e", "mbps:9-9") == []

    def test_summary_shape(self, table):
        assert table.summary("empty", "total_mbps") is None
        for i in range(5):
            table.record_trial("e", _result(i))
        s = table.summary("e", "total_mbps")
        assert s["count"] == 5
        assert s["median"] == stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50)


class TestJobs:
    def test_upsert_get_round_trip(self, table):
        job = new_job("fig12", [_trial()], priority=3, testbed_seed=7, now=10.0)
        table.upsert_job(job)
        back = table.get_job(job.job_id)
        assert back == job
        job.state = RUNNING
        job.completed = 1
        table.upsert_job(job)
        assert table.get_job(job.job_id).state == RUNNING
        assert table.get_job("missing") is None

    def test_open_jobs_are_queued_or_running_oldest_first(self, table):
        done = new_job("done", [_trial()], now=1.0)
        done.state = DONE
        running = new_job("running", [_trial()], now=3.0)
        running.state = RUNNING
        queued = new_job("queued", [_trial()], now=2.0)
        for job in (done, running, queued):
            table.upsert_job(job)
        opened = table.open_jobs()
        assert [j.name for j in opened] == ["queued", "running"]
        assert all(j.state in (QUEUED, RUNNING) for j in opened)

    def test_every_reader_returns_the_job_last_upserted(
        self, table, monkeypatch
    ):
        """The trial list is serialised by the first upsert only; after
        each later one every reader still returns the live job, field for
        field — and the progress read decodes no trial at all."""
        calls = []
        real_to_wire = SweepJob.to_wire
        monkeypatch.setattr(
            SweepJob, "to_wire",
            lambda self: calls.append(self.job_id) or real_to_wire(self),
        )
        job = new_job("sweep", [_trial(f"t/{i}") for i in range(6)],
                      priority=1, testbed_seed=3, now=10.0)
        job.idempotency_key = "k"
        table.upsert_job(job)
        steps = [
            dict(state=RUNNING, started_at=11.0, attempt=1),
            dict(completed=1),
            dict(completed=2, quarantined=1, error="ValueError: bad trial"),
            dict(state=QUEUED),
            dict(state=RUNNING, started_at=12.0, attempt=2, completed=0,
                 quarantined=0),
            dict(completed=5, quarantined=1),
            dict(state=DONE, finished_at=13.0),
        ]
        for step in steps:
            for name, value in step.items():
                setattr(job, name, value)
            table.upsert_job(job)
            assert table.get_job(job.job_id) == job
            assert table.list_jobs() == [job]
            assert table.job_by_idempotency_key("k") == job
            assert table.open_jobs() == ([job] if job.state != DONE else [])
            assert table.job_progress(job.job_id) == [job.progress()]
            assert table.job_progress() == [job.progress()]
        assert calls == [job.job_id]
        assert table.job_progress("missing") == []

        monkeypatch.setattr(
            TrialSpec, "from_wire",
            lambda obj: pytest.fail("a progress read decoded a trial"),
        )
        assert table.job_progress(job.job_id) == [job.progress()]

    def test_list_jobs_filters_by_state(self, table):
        for name, state in (("a", DONE), ("b", QUEUED)):
            job = new_job(name, [_trial()])
            job.state = state
            table.upsert_job(job)
        assert [j.name for j in table.list_jobs(states=(DONE,))] == ["a"]


class TestStoreIngest:
    def test_ingest_store(self, table, tmp_path):
        store = ResultStore(str(tmp_path / "s.json"), testbed_seed=5)
        for i in range(3):
            store.put(_result(i))
        store.save()
        reloaded = ResultStore(str(tmp_path / "s.json"))
        assert table.ingest_store(reloaded, "mig") == 3
        assert table.trial_count(experiment="mig") == 3
        (row,) = table.recent_runs(experiment="mig", limit=1)
        assert row["seed"] == 5
        assert table.ingest_store(reloaded, "mig2", job_id="j1") == 3
        assert table.trial_count(experiment="mig2") == 3

    def test_migrated_rows_round_trip_payloads(self, table, tmp_path):
        store = ResultStore(str(tmp_path / "s.json"), testbed_seed=1)
        original = _result(0, metrics={"fanout": 2.5})
        store.put(original)
        table.ingest_store(store, "m")
        assert table.results("m") == [original]

    def test_wire_column_is_valid_json(self, table):
        job = new_job("fig13", [_trial()], now=0.0)
        table.upsert_job(job)
        with table._lock:
            (raw,) = table._conn.execute(
                "SELECT wire FROM jobs WHERE job_id = ?", (job.job_id,)
            ).fetchone()
        assert json.loads(raw)["name"] == "fig13"


class TestQuarantineRows:
    def test_quarantine_recorded_with_error_class(self, table):
        table.record_quarantine("e", "t/0", "fp0", "TrialHungError: wedged",
                                "TrialHungError", seed=1, job_id="j1")
        assert table.trial_status("e", "t/0", "fp0") == "quarantined"
        (row,) = table.recent_runs(experiment="e", status="quarantined",
                                   with_payload=True)
        assert row["payload"] == {"error": "TrialHungError: wedged",
                                  "error_class": "TrialHungError"}
        # quarantined rows are error records, not results
        assert table.results("e") == []

    def test_quarantine_never_replaces_an_ok_row(self, table):
        ok = _result(0)
        table.record_trial("e", ok)
        table.record_quarantine("e", ok.trial_id, ok.fingerprint,
                                "flake", "OSError")
        assert table.trial_status("e", ok.trial_id, ok.fingerprint) == "ok"
        assert table.results("e") == [ok]

    def test_trial_status_none_when_unrecorded(self, table):
        assert table.trial_status("e", "t/9", "fp9") is None


class TestIdempotencyKeys:
    def test_lookup_returns_earliest_job_for_key(self, table):
        first = new_job("a", [_trial()], now=1.0)
        first.idempotency_key = "k1"
        later = new_job("a", [_trial()], now=2.0)
        later.idempotency_key = "k1"
        table.upsert_job(later)
        table.upsert_job(first)
        found = table.job_by_idempotency_key("k1")
        assert found is not None and found.job_id == first.job_id
        assert table.job_by_idempotency_key("unseen") is None

    def test_old_schema_file_gains_the_idem_key_column(self, tmp_path):
        """A run-table written before PR 7 has no idem_key column; opening
        it must migrate additively, not fail or drop data."""
        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE jobs (job_id TEXT PRIMARY KEY, name TEXT NOT NULL,"
            " priority INTEGER NOT NULL, state TEXT NOT NULL,"
            " testbed_seed INTEGER, submitted_at REAL, started_at REAL,"
            " finished_at REAL, completed INTEGER NOT NULL DEFAULT 0,"
            " failed INTEGER NOT NULL DEFAULT 0, total INTEGER NOT NULL,"
            " error TEXT, wire TEXT NOT NULL);"
        )
        old = new_job("legacy", [_trial()], now=0.0)
        conn.execute(
            "INSERT INTO jobs (job_id, name, priority, state, total, wire)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (old.job_id, old.name, 0, old.state, 1,
             json.dumps(old.to_wire())),
        )
        conn.commit()
        conn.close()

        rt = RunTable(path)
        try:
            assert rt.rebuilt_from is None
            assert rt.get_job(old.job_id) == old
            keyed = new_job("keyed", [_trial()], now=1.0)
            keyed.idempotency_key = "k"
            rt.upsert_job(keyed)
            assert rt.job_by_idempotency_key("k").job_id == keyed.job_id
        finally:
            rt.close()

    def test_pr10_schema_file_gains_the_job_progress_columns(self, tmp_path):
        """Up to PR 10 ``quarantined`` and ``attempt`` lived in the wire
        blob only, which was rewritten on every upsert. Opening such a
        file adds the columns and fills them from the blob, so readers
        return the job exactly as it was last persisted."""
        path = str(tmp_path / "pr10.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE jobs (job_id TEXT PRIMARY KEY, name TEXT NOT NULL,"
            " priority INTEGER NOT NULL, state TEXT NOT NULL,"
            " testbed_seed INTEGER, submitted_at REAL, started_at REAL,"
            " finished_at REAL, completed INTEGER NOT NULL DEFAULT 0,"
            " failed INTEGER NOT NULL DEFAULT 0, total INTEGER NOT NULL,"
            " error TEXT, wire TEXT NOT NULL, idem_key TEXT);"
        )
        old = new_job("legacy", [_trial(f"t/{i}") for i in range(9)],
                      priority=2, testbed_seed=4, now=5.0)
        old.state, old.started_at, old.error = RUNNING, 6.0, "OSError: flake"
        old.completed, old.quarantined, old.attempt = 4, 2, 3
        conn.execute(
            "INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (old.job_id, old.name, old.priority, old.state, old.testbed_seed,
             old.submitted_at, old.started_at, old.finished_at, old.completed,
             0, old.total, old.error,
             # the blob of that era carries the since-dropped ``failed``
             json.dumps({**old.to_wire(), "failed": 0}), None),
        )
        conn.commit()
        conn.close()

        rt = RunTable(path)
        try:
            assert rt.rebuilt_from is None
            assert rt.get_job(old.job_id) == old
            assert rt.open_jobs() == [old]
            assert rt.job_progress(old.job_id) == [old.progress()]
            old.completed, old.attempt = 5, 4
            rt.upsert_job(old)
            assert rt.get_job(old.job_id) == old
        finally:
            rt.close()
        reopened = RunTable(path)  # migrating twice is a no-op
        try:
            assert reopened.get_job(old.job_id) == old
        finally:
            reopened.close()


class TestCrashConsistency:
    def test_wal_mode_and_busy_timeout(self, table):
        with table._lock:
            (mode,) = table._conn.execute("PRAGMA journal_mode").fetchone()
            (busy,) = table._conn.execute("PRAGMA busy_timeout").fetchone()
        assert mode == "wal"
        assert busy == 5000

    def test_busy_burst_is_absorbed_with_backoff(self, tmp_path):
        from repro.service.faults import FaultPlan, FaultRule

        plan = FaultPlan([FaultRule(
            site="runtable.execute", action="raise",
            exc="sqlite3.OperationalError", message="database is locked",
            nth=1, times=3,
        )])
        sleeps = []
        rt = RunTable(str(tmp_path / "runs.sqlite"),
                      sleep=sleeps.append, fault_hook=plan.fire)
        try:
            rt.record_trial("e", _result(0))
            assert rt.trial_count(experiment="e") == 1
            assert sleeps == [0.05, 0.1, 0.2]
        finally:
            rt.close()

    def test_busy_forever_exhausts_the_retry_schedule(self, tmp_path):
        from repro.service.faults import FaultPlan, FaultRule

        plan = FaultPlan([FaultRule(
            site="runtable.execute", action="raise",
            exc="sqlite3.OperationalError", message="database is locked",
            times=0,
        )])
        sleeps = []
        rt = RunTable(str(tmp_path / "runs.sqlite"),
                      sleep=sleeps.append, fault_hook=plan.fire)
        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                rt.record_trial("e", _result(0))
            assert len(sleeps) == RunTable.BUSY_ATTEMPTS
            assert sleeps[-1] == 0.5  # capped
        finally:
            rt.close()

    def test_non_busy_operational_errors_are_not_retried(self, tmp_path):
        from repro.service.faults import FaultPlan, FaultRule

        plan = FaultPlan([FaultRule(
            site="runtable.execute", action="raise",
            exc="sqlite3.OperationalError", message="no such table: bogus",
        )])
        sleeps = []
        rt = RunTable(str(tmp_path / "runs.sqlite"),
                      sleep=sleeps.append, fault_hook=plan.fire)
        try:
            with pytest.raises(sqlite3.OperationalError, match="bogus"):
                rt.record_trial("e", _result(0))
            assert sleeps == []
        finally:
            rt.close()

    def test_corrupt_file_is_quarantined_and_recreated(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        with open(path, "wb") as fh:
            fh.write(b"this is not a sqlite database, not even close")
        rt = RunTable(path)
        try:
            assert rt.rebuilt_from == path + ".corrupt-0"
            with open(rt.rebuilt_from, "rb") as fh:
                assert fh.read().startswith(b"this is not")
            rt.record_trial("e", _result(0))  # the fresh table works
            assert rt.trial_count() == 1
        finally:
            rt.close()
        # a second corruption lands in .corrupt-1, evidence preserved
        with open(path, "wb") as fh:
            fh.write(b"garbage again")
        rt2 = RunTable(path)
        try:
            assert rt2.rebuilt_from == path + ".corrupt-1"
        finally:
            rt2.close()

    def test_rebuild_from_stores_repopulates_trial_rows(self, tmp_path):
        stores = tmp_path / "stores"
        stores.mkdir()
        good = ResultStore(str(stores / "fig12.json"), testbed_seed=5,
                           experiment="fig12")
        for i in range(3):
            good.put(_result(i))
        good.save()
        # a store predating the experiment-name field is skipped
        nameless = ResultStore(str(stores / "old.json"), testbed_seed=1)
        nameless.put(_result(9))
        nameless.save()
        # unparseable junk is skipped, not fatal
        (stores / "junk.json").write_text("{not json")
        (stores / "notes.txt").write_text("ignore me")

        rt = RunTable(str(tmp_path / "runs.sqlite"))
        try:
            assert rt.rebuild_from_stores(str(stores)) == 3
            assert rt.counts_by_experiment() == {"fig12": 3}
            (row,) = rt.recent_runs(experiment="fig12", limit=1)
            assert row["seed"] == 5
        finally:
            rt.close()

    def test_rebuild_from_missing_dir_is_a_noop(self, table, tmp_path):
        assert table.rebuild_from_stores(str(tmp_path / "nowhere")) == 0


class TestConcurrentWriters:
    def test_threaded_writers_never_lose_rows(self, tmp_path):
        """The satellite thread-safety audit, as a stress test: many
        threads hammering trial inserts and job upserts through the one
        locked connection — every row lands, nothing raises."""
        rt = RunTable(str(tmp_path / "runs.sqlite"))
        threads, errors = [], []
        n_threads, n_rows = 8, 25

        def writer(worker):
            try:
                job = new_job(f"w{worker}", [_trial()], now=float(worker))
                for i in range(n_rows):
                    result = TrialResult(
                        trial_id=f"w{worker}/t{i}",
                        flow_mbps={(0, 1): float(i)},
                        metrics={},
                        fingerprint=f"fp-{worker}-{i}",
                    )
                    rt.record_trial(f"exp{worker}", result, job_id=job.job_id)
                    job.completed = i + 1
                    rt.upsert_job(job)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        try:
            for w in range(n_threads):
                t = threading.Thread(target=writer, args=(w,))
                threads.append(t)
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert errors == []
            assert rt.trial_count() == n_threads * n_rows
            assert rt.counts_by_experiment() == {
                f"exp{w}": n_rows for w in range(n_threads)
            }
            for w in range(n_threads):
                jobs = rt.list_jobs(states=None)
                assert len(jobs) == n_threads
            for job in rt.list_jobs():
                assert job.completed == n_rows
        finally:
            rt.close()


class TestFencedWrites:
    def test_rows_carry_worker_attempt_token(self, table):
        table.record_trial("fig12", _result(0), worker_id="wA",
                           attempt=1, token=7)
        row = table.recent_runs(limit=1)[0]
        assert (row["worker_id"], row["attempt"], row["token"]) == ("wA", 1, 7)

    def test_stale_token_write_is_rejected(self, table):
        """The zombie case: the new holder (token 9) recorded the row; a
        partitioned worker's late upload (token 3) must raise, not
        overwrite — whatever ``replace`` says."""
        from repro.errors import StaleTokenError

        table.record_trial("fig12", _result(0), worker_id="wB", token=9)
        for replace in (True, False):
            with pytest.raises(StaleTokenError):
                table.record_trial("fig12", _result(0), worker_id="wA",
                                   token=3, replace=replace)
        row = table.recent_runs(limit=1)[0]
        assert row["worker_id"] == "wB" and row["token"] == 9

    def test_duplicate_fenced_upload_lands_one_row(self, table):
        """Same token, same row, twice (a duplicated upload): the second
        write is an idempotent no-op returning False."""
        assert table.record_trial("fig12", _result(0), token=5) is True
        assert table.record_trial("fig12", _result(0), token=5) is False
        assert table.trial_count() == 1

    def test_stale_quarantine_is_fenced_too(self, table):
        from repro.errors import StaleTokenError

        table.record_quarantine("fig12", "t/0", "fp0", "boom", "OSError",
                                token=9)
        with pytest.raises(StaleTokenError):
            table.record_quarantine("fig12", "t/0", "fp0", "late", "OSError",
                                    token=2)

    def test_unfenced_writes_keep_working(self, table):
        """token=None (every pre-existing caller) bypasses the fence."""
        table.record_trial("fig12", _result(0))
        assert table.record_trial("fig12", _result(0), replace=True) is True
        assert table.trial_count() == 1


class TestPrune:
    def test_age_based_prune_checkpoints_wal(self, table):
        for i in range(6):
            table.record_trial("fig12", _result(i), recorded_at=float(i))
        # cutoff = 6 - 2 = 4: rows recorded at 0..3 drop, 4 and 5 stay
        assert table.prune(max_age_s=2.0, now=6.0) == 4
        assert table.trial_count() == 2

    def test_count_based_prune_keeps_newest(self, table):
        for i in range(6):
            table.record_trial("fig12", _result(i), recorded_at=float(i))
        assert table.prune(max_keep=2) == 4
        kept = {r["trial_id"] for r in table.recent_runs(limit=10)}
        assert kept == {"t/4", "t/5"}

    def test_open_jobs_rows_are_never_pruned(self, table):
        """Retention must not eat a crash-resume's evidence: rows of
        queued/running jobs survive any bound."""
        open_job = new_job("open", [_trial()], now=0.0)
        open_job.state = RUNNING
        table.upsert_job(open_job)
        done_job = new_job("done", [_trial()], now=0.0)
        done_job.state = DONE
        table.upsert_job(done_job)
        table.record_trial("fig12", _result(0), job_id=open_job.job_id,
                           recorded_at=0.0)
        table.record_trial("fig12", _result(1), job_id=done_job.job_id,
                           recorded_at=0.0)
        table.record_trial("fig12", _result(2), recorded_at=0.0)  # no job
        assert table.prune(max_age_s=1.0, now=100.0, max_keep=0) == 2
        rows = table.recent_runs(limit=10)
        assert [r["trial_id"] for r in rows] == ["t/0"]

    def test_no_bounds_is_a_no_op(self, table):
        table.record_trial("fig12", _result(0))
        assert table.prune() == 0
        assert table.trial_count() == 1
        with pytest.raises(ValueError):
            table.prune(max_age_s=-1)
        with pytest.raises(ValueError):
            table.prune(max_keep=-1)


class TestMigration:
    def test_pre_fencing_db_gains_the_new_columns(self, tmp_path):
        """A run-table created before worker_id/attempt/token existed is
        migrated additively on open — old rows read back with NULLs."""
        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE trials (
                experiment TEXT NOT NULL, trial_id TEXT NOT NULL,
                fingerprint TEXT NOT NULL, seed INTEGER, wall_time REAL,
                status TEXT NOT NULL, job_id TEXT, recorded_at REAL NOT NULL,
                payload TEXT NOT NULL,
                PRIMARY KEY (experiment, trial_id, fingerprint));
            CREATE TABLE jobs (
                job_id TEXT PRIMARY KEY, name TEXT NOT NULL,
                priority INTEGER NOT NULL, state TEXT NOT NULL,
                testbed_seed INTEGER, submitted_at REAL, started_at REAL,
                finished_at REAL, completed INTEGER NOT NULL DEFAULT 0,
                failed INTEGER NOT NULL DEFAULT 0, total INTEGER NOT NULL,
                error TEXT, wire TEXT NOT NULL);
        """)
        conn.execute(
            "INSERT INTO trials VALUES ('fig12', 't/0', 'fp0', 1, 0.5, "
            "'ok', NULL, 1.0, ?)",
            (json.dumps(_result(0).to_json()),),
        )
        conn.commit()
        conn.close()
        rt = RunTable(path)
        try:
            row = rt.recent_runs(limit=1)[0]
            assert row["worker_id"] is None and row["token"] is None
            rt.record_trial("fig12", _result(1), worker_id="wA", token=3)
            assert rt.trial_count() == 2
        finally:
            rt.close()
