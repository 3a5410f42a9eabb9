"""Executor, spec, and persistence tests.

The load-bearing guarantees:

* the declarative spec + serial executor reproduce the pre-refactor runners
  bit-for-bit (golden floats captured from the hand-rolled implementations
  at smoke scale, testbed seed 1);
* the process-pool backend is bit-identical to serial;
* specs re-materialize stably (same ids, seeds, fingerprints), which is what
  makes persistence/resume sound.
"""

import json
import os
import pickle
import shutil

import pytest

from repro.experiments.executor import (
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    make_backend,
    run_experiment,
    run_trial,
)
from repro.experiments.runners import (
    ExperimentScale,
    ScatterPoint,
    build_exposed_terminals,
    build_hidden_terminals,
    build_inrange_senders,
    build_single_link_calibration,
)
from repro.experiments.scenarios import InterfererTriple
from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    TrialResult,
    TrialSpec,
    coerce_mac,
)
from repro.net.testbed import Testbed
from repro.network import build_mac_factory


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def smoke():
    return ExperimentScale.smoke()


# Golden outputs of the pre-spec hand-rolled runners (testbed seed 1,
# ExperimentScale.smoke()). The refactor must not move a single bit.
GOLDEN_FIG12_TOTALS = {
    "cs_on": [4.7904, 5.7824, 5.2128],
    "cs_off_noacks": [5.3504000000000005, 10.8896, 9.0816],
    "cmap": [5.2672, 10.8704, 8.9824],
    "cmap_win1": [4.144, 9.5168, 6.2784],
}
GOLDEN_FIG12_CONC = {
    "cmap": [0.20485622971853207, 0.9025309282763259, 0.8847614202965389],
    "cmap_win1": [0.3437460583736443, 0.793616902784254, 0.6150589333251846],
}
GOLDEN_FIG13_TOTALS = {
    "cs_on": [5.4239999999999995, 5.1776, 5.0048],
    "cs_off_acks": [5.1744, 1.6128, 5.014399999999999],
    "cs_off_noacks": [5.5264, 0.2624, 6.4512],
    "cmap": [5.513599999999999, 3.0208, 5.7088],
}
GOLDEN_FIG15_TOTALS = {
    "cs_on": [4.7456000000000005, 2.4032, 5.0944],
    "cs_off_acks": [4.912, 1.2288000000000001, 1.1456],
    "cmap": [5.4719999999999995, 3.4976000000000003, 2.6879999999999997],
}


def run_fig(build, testbed, scale, **kwargs):
    """Build a figure's spec on ``testbed`` and run it there; ``backend``
    and ``store`` pass through to the executor."""
    return run_experiment(build(testbed, scale), testbed, **kwargs)


class CountingBackend:
    """Serial backend that records how many trials it actually ran."""

    def __init__(self):
        self.executed = 0

    def run(self, testbed, trials, on_result=None):
        self.executed += len(trials)
        return SerialBackend().run(testbed, trials, on_result=on_result)


class DyingBackend:
    """Serial backend that crashes after ``survive`` completed trials."""

    def __init__(self, survive):
        self.survive = survive

    def run(self, testbed, trials, on_result=None):
        results = []
        for trial in trials:
            if len(results) >= self.survive:
                raise RuntimeError("simulated crash mid-sweep")
            res = run_trial(testbed, trial)
            if on_result is not None:
                on_result(res)
            results.append(res)
        return results


class TestGoldenEquivalence:
    """Serial spec execution == pre-refactor hand-rolled runners."""

    def test_fig12_bit_identical(self, testbed, smoke):
        r = run_fig(build_exposed_terminals, testbed, smoke)
        assert r.totals == GOLDEN_FIG12_TOTALS
        assert r.concurrency == GOLDEN_FIG12_CONC

    def test_fig13_bit_identical(self, testbed, smoke):
        r = run_fig(build_inrange_senders, testbed, smoke)
        assert r.totals == GOLDEN_FIG13_TOTALS

    def test_fig15_bit_identical(self, testbed, smoke):
        r = run_fig(build_hidden_terminals, testbed, smoke)
        assert r.totals == GOLDEN_FIG15_TOTALS


class TestProcessPool:
    def test_fig12_pool_matches_serial_goldens(self, testbed, smoke):
        r = run_fig(build_exposed_terminals, testbed, smoke,
                    backend=ProcessPoolBackend(jobs=2))
        assert r.totals == GOLDEN_FIG12_TOTALS
        assert r.concurrency == GOLDEN_FIG12_CONC

    def test_fig13_pool_matches_serial_goldens(self, testbed, smoke):
        r = run_fig(build_inrange_senders, testbed, smoke,
                    backend=ProcessPoolBackend(jobs=2))
        assert r.totals == GOLDEN_FIG13_TOTALS

    def test_make_backend(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        pool = make_backend(4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.jobs == 4


class TestSpecStability:
    """Re-materializing a spec must yield identical trials — the property
    persistence/resume relies on."""

    def test_trials_stable_across_rebuilds(self, testbed, smoke):
        a = build_exposed_terminals(testbed, smoke)
        b = build_exposed_terminals(testbed, smoke)
        assert [t.trial_id for t in a.trials] == [t.trial_id for t in b.trials]
        assert [t.run_seed for t in a.trials] == [t.run_seed for t in b.trials]
        assert [t.fingerprint() for t in a.trials] == [
            t.fingerprint() for t in b.trials
        ]
        assert a.trials == b.trials

    def test_fingerprint_sensitive_to_settings(self, testbed, smoke):
        spec = build_hidden_terminals(testbed, smoke)
        trial = spec.trials[0]
        longer = TrialSpec(
            trial_id=trial.trial_id,
            nodes=trial.nodes,
            flows=trial.flows,
            mac=trial.mac,
            run_seed=trial.run_seed,
            duration=trial.duration * 2,
            warmup=trial.warmup,
        )
        assert longer.fingerprint() != trial.fingerprint()

    def test_trialspec_pickles(self, testbed, smoke):
        spec = build_inrange_senders(testbed, smoke)
        for trial in spec.trials:
            clone = pickle.loads(pickle.dumps(trial))
            assert clone == trial
            assert clone.fingerprint() == trial.fingerprint()

    def test_duplicate_trial_ids_rejected(self):
        t = TrialSpec("dup", (0, 1), ((0, 1),), MacSpec.of("cmap"), 0, 4.0, 1.0)
        with pytest.raises(ValueError):
            ExperimentSpec("x", [t, t], lambda results: results)


class TestResultStore:
    def test_resume_skips_completed_trials(self, testbed, smoke, tmp_path):
        path = str(tmp_path / "results.json")
        store = ResultStore(path, testbed_seed=1)
        first = CountingBackend()
        r1 = run_fig(build_inrange_senders, testbed, smoke,
                     backend=first, store=store)
        assert first.executed == len(build_inrange_senders(testbed, smoke).trials)

        resumed = ResultStore(path, testbed_seed=1)
        second = CountingBackend()
        r2 = run_fig(build_inrange_senders, testbed, smoke,
                     backend=second, store=resumed)
        assert second.executed == 0
        assert r2.totals == r1.totals
        assert r2.per_flow == r1.per_flow
        assert r2.concurrency == r1.concurrency

    def test_fingerprint_mismatch_reruns(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        run_fig(build_inrange_senders, testbed, tiny,
                backend=CountingBackend(), store=store)

        longer = ExperimentScale(configs=1, duration=5.0, warmup=1.5)
        backend = CountingBackend()
        run_fig(build_inrange_senders, testbed, longer, backend=backend,
                store=ResultStore(path, testbed_seed=1))
        assert backend.executed == len(
            build_inrange_senders(testbed, longer).trials
        )

    def test_interrupted_run_keeps_completed_trials(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=2, duration=4.0, warmup=1.5)
        total = len(build_inrange_senders(testbed, tiny).trials)
        survive = 3
        with pytest.raises(RuntimeError):
            run_fig(build_inrange_senders, testbed, tiny,
                    backend=DyingBackend(survive),
                    store=ResultStore(path, testbed_seed=1))
        # The crash must not lose the trials that finished before it.
        assert len(ResultStore(path, testbed_seed=1)) == survive

        backend = CountingBackend()
        run_fig(build_inrange_senders, testbed, tiny, backend=backend,
                store=ResultStore(path, testbed_seed=1))
        assert backend.executed == total - survive

    def test_seed_mismatch_rejected(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        run_fig(build_inrange_senders, testbed, tiny, store=store)
        with pytest.raises(ValueError):
            ResultStore(path, testbed_seed=2)

    def test_store_binds_to_executed_testbed(self, testbed, tmp_path):
        # Even a store created without a seed must reject a foreign testbed
        # once it has been used (the executor binds it to testbed.seed).
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path)
        run_fig(build_inrange_senders, testbed, tiny, store=store)
        assert store.testbed_seed == testbed.seed
        other = Testbed(seed=2)
        with pytest.raises(ValueError):
            run_fig(build_inrange_senders, other, tiny, store=store)


class RudeBackend:
    """Backend that ``put``s results into the store itself but never calls
    ``on_result`` — then dies. Models a worker that batches persistence:
    the run_experiment crash path must flush the store anyway."""

    def __init__(self, store, survive):
        self.store = store
        self.survive = survive

    def run(self, testbed, trials, on_result=None):
        for trial in trials[: self.survive]:
            self.store.put(run_trial(testbed, trial))
        raise RuntimeError("simulated worker death before any save")


def _synthetic(i, tag="t"):
    return TrialResult(f"{tag}/{i}", {(0, 1): 1.5 + i}, {"n": i}, f"fp-{tag}{i}")


def _no_tmp_litter(directory):
    return [p for p in directory.iterdir() if p.suffix == ".tmp"] == []


class TestCrashSafety:
    def test_save_fault_leaves_previous_contents_intact(
        self, tmp_path, monkeypatch
    ):
        """A save that dies half-way — mid-append and mid-rewrite — must
        leave the previously saved results readable and no temp litter
        behind, and the next save must succeed and repair the file."""
        path = str(tmp_path / "results.json")
        store = ResultStore(path, testbed_seed=1)
        for i in range(3):
            store.put(_synthetic(i))
            store.save()
        intact = store.results()

        # --- mid-append: half a line reaches the file, then the disk fills
        real_write = os.write

        def torn_write(fd, data):
            real_write(fd, data[: len(data) // 2])
            raise OSError("disk full (injected)")

        store.put(_synthetic(3))
        with monkeypatch.context() as m:
            m.setattr("repro.experiments.executor.os.write", torn_write)
            with pytest.raises(OSError):
                store.save()
        assert not open(path, "rb").read().endswith(b"\n")  # torn on disk
        assert ResultStore(path, testbed_seed=1).results() == intact
        assert _no_tmp_litter(tmp_path)
        store.save()  # the retry rewrites: the torn half-line is gone
        intact = store.results()
        assert len(intact) == 4
        assert ResultStore(path, testbed_seed=1).results() == intact
        assert all(json.loads(line) for line in open(path).read().splitlines())

        # --- mid-rewrite (a header change forces one): fsync fails
        def failing_fsync(fd):
            raise OSError("I/O error (injected)")

        store.experiment = "renamed"
        store.put(_synthetic(4))
        with monkeypatch.context() as m:
            m.setattr("repro.experiments.executor.os.fsync", failing_fsync)
            with pytest.raises(OSError):
                store.save()
        untouched = ResultStore(path, testbed_seed=1)
        assert untouched.results() == intact and untouched.experiment is None
        assert _no_tmp_litter(tmp_path)
        store.save()
        repaired = ResultStore(path, testbed_seed=1)
        assert repaired.results() == store.results() and len(repaired) == 5
        assert repaired.experiment == "renamed"

    def test_uncooperative_backend_failure_still_persists(
        self, testbed, tmp_path
    ):
        """Even a backend that never calls on_result loses nothing that
        reached the store before it died."""
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=2, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        with pytest.raises(RuntimeError):
            run_fig(
                build_inrange_senders, testbed, tiny,
                backend=RudeBackend(store, survive=2),
                store=store,
            )
        assert len(ResultStore(path, testbed_seed=1)) == 2

    def test_raising_trial_keeps_earlier_results(self, testbed, tmp_path):
        """A spec whose trial raises (unknown metric) fails the sweep but
        the trials that completed before it are already on disk."""
        path = str(tmp_path / "results.json")
        good = TrialSpec("good/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                         0, 4.0, 1.5)
        bad = TrialSpec("bad/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                        0, 4.0, 1.5, metrics=("no_such_metric",))
        spec = ExperimentSpec("partial", [good, bad], lambda r: r)
        with pytest.raises(KeyError):
            run_experiment(spec, testbed,
                           store=ResultStore(path, testbed_seed=1))
        reloaded = ResultStore(path, testbed_seed=1)
        assert len(reloaded) == 1
        assert reloaded.get(good) is not None


class TestAppendProtocol:
    """``save`` is an append of whole lines: every prefix of the file a
    crash can leave behind is a valid earlier store."""

    K = 6

    def _saved(self, path, k=K):
        store = ResultStore(path, testbed_seed=1, experiment="proto")
        for i in range(k):
            store.put(_synthetic(i))
            store.save()
        return store

    def test_save_appends_in_place(self, tmp_path):
        """After the first save (a rename) the file is only ever grown:
        same inode, and each save adds exactly its own line."""
        path = str(tmp_path / "s.json")
        store = self._saved(path, k=1)
        inode, size = os.stat(path).st_ino, os.path.getsize(path)
        for i in range(1, 4):
            store.put(_synthetic(i))
            store.save()
            line = len(json.dumps(_synthetic(i).to_json())) + 1
            assert os.stat(path).st_ino == inode
            assert os.path.getsize(path) == size + line
            size += line
        store.save()  # nothing unsaved: nothing written
        assert os.path.getsize(path) == size

    def test_every_crash_point_reloads_a_valid_prefix(self, tmp_path):
        full = str(tmp_path / "full.json")
        results = self._saved(full).results()
        data = open(full, "rb").read()
        # ends[j]: file length once line j (0 = header) and its newline are in
        ends = [i + 1 for i, b in enumerate(data) if b == 0x0A]
        assert len(ends) == self.K + 1
        scratch = str(tmp_path / "cut.json")
        extra = _synthetic(99)
        for length in range(len(data) + 1):
            with open(scratch, "wb") as f:
                f.write(data[:length])
            store = ResultStore(scratch)  # (i) it loads
            fits = sum(1 for end in ends[1:] if end <= length)
            assert store.results() == results[:fits], length  # (ii)
            assert store.testbed_seed == (1 if length >= ends[0] else None)
            store.put(extra)
            store.save()
            reread = open(scratch, "rb").read()  # (iii) no garbage left
            assert reread.endswith(b"\n")
            assert all(json.loads(line) for line in reread.splitlines())
            assert ResultStore(scratch).results() == results[:fits] + [extra]

    def test_corrupt_complete_line_raises(self, tmp_path):
        path = str(tmp_path / "s.json")
        self._saved(path, k=2)
        with open(path, "ab") as f:
            f.write(b"{not json\n")
        with pytest.raises(ValueError):
            ResultStore(path)

    def test_two_writers_on_one_path_keep_the_union(self, tmp_path):
        """A reaped-but-still-finishing worker and the new lease holder
        can both hold a store on one file: alternating saves lose nothing,
        and a shared trial resolves last-line-wins."""
        path = str(tmp_path / "s.json")
        a = self._saved(path, k=1)
        b = ResultStore(path, testbed_seed=1, experiment="proto")
        for i in range(1, 5):
            a.put(_synthetic(i, "a"))
            a.save()
            b.put(_synthetic(i, "b"))
            b.save()
        a.put(_synthetic(0))  # same trial_id as the first line
        a.save()
        merged = ResultStore(path)
        assert len(merged) == 1 + 4 + 4
        assert {r.trial_id for r in merged.results()} == (
            {"t/0"} | {f"{w}/{i}" for w in "ab" for i in range(1, 5)}
        )


class TestLegacyStoreFormat:
    """A store written before the JSON-lines format (one JSON object,
    committed as ``tests/data/store_pr10_format.json`` holding one of the
    two calibration trials) still resumes, and is upgraded by its first
    save."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                           "store_pr10_format.json")

    def test_loads_serves_cache_hits_and_upgrades(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        shutil.copy(self.FIXTURE, path)
        spec = build_single_link_calibration(testbed, ExperimentScale.smoke())
        store = ResultStore(path)
        assert (store.testbed_seed, store.experiment) == (1, "calibration")
        assert [r.trial_id for r in store.results()] == ["calibration/cmap"]

        backend = CountingBackend()
        resumed = run_experiment(spec, testbed, backend=backend, store=store)
        assert backend.executed == 1  # calibration/cmap came from the file
        assert resumed == run_experiment(spec, testbed)

        header, *lines = open(path).read().splitlines()
        assert json.loads(header) == {"testbed_seed": 1,
                                      "experiment": "calibration"}
        assert [json.loads(line)["trial_id"] for line in lines] == [
            "calibration/cmap", "calibration/dcf"]
        assert ResultStore(path).results() == store.results()


class TestMacRegistry:
    def test_known_protocols(self):
        assert callable(build_mac_factory("cmap"))
        assert callable(build_mac_factory("dcf", {"carrier_sense": False}))

    @pytest.mark.parametrize(
        "protocol", ["cmap", "dcf", "rtscts", "ecsma", "iamac", "autorate"]
    )
    def test_every_mac_variant_is_string_addressable(self, testbed, protocol):
        """All MAC variants run through the registry and pickle (so they can
        cross the process-pool boundary), not just cmap/dcf."""
        spec = TrialSpec(
            f"registry/{protocol}", (0, 1), ((0, 1),), MacSpec.of(protocol),
            run_seed=0, duration=2.0, warmup=0.5,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.mac.build() is not None
        result = run_trial(testbed, spec)
        assert result.mbps(0, 1) >= 0.0

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            build_mac_factory("aloha")

    def test_rate_ints_resolve(self, testbed):
        spec = TrialSpec(
            "rates", (0, 1), ((0, 1),),
            MacSpec.of("cmap", data_rate=12, control_rate=6),
            run_seed=0, duration=3.0, warmup=1.0,
        )
        result = run_trial(testbed, spec)
        assert result.mbps(0, 1) >= 0.0

    def test_coerce_raw_factory_is_serial_only(self):
        from repro.network import cmap_factory

        mac = coerce_mac(cmap_factory())
        assert mac.inline is not None
        assert callable(mac.build())
        stripped = pickle.loads(pickle.dumps(mac))
        with pytest.raises(ValueError):
            stripped.build()

    def test_inline_wraps_never_share_fingerprints(self):
        # Sequentially created closures can reuse id()s after GC; the wrap
        # serial must keep their fingerprints distinct so a ResultStore can
        # never serve one inline experiment's results to another.
        from repro.network import cmap_factory

        def trial_for(mac):
            return TrialSpec("x", (0, 1), ((0, 1),), mac, 0, 4.0, 1.0)

        fingerprints = set()
        for _ in range(4):
            fingerprints.add(trial_for(coerce_mac(cmap_factory())).fingerprint())
        assert len(fingerprints) == 4


class TestScatterPointDefault:
    def test_hear_probability_defaults_to_zero(self):
        point = ScatterPoint(InterfererTriple(0, 1, 2, 3), 0.5, 1.0, 0.5)
        assert point.hear_probability == 0.0  # no AttributeError before set
        point.set_hear_probability(0.9, 0.8)
        assert point.hear_probability == pytest.approx(0.7)
