"""Executor fault domains: the trial watchdog, and what the ``cli --jobs``
process pool does when a trial raises or a worker dies (the error
propagates, finished trials stay stored, ``--resume`` continues) — against
real trials and real worker processes."""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import TrialHungError
from repro.experiments import executor
from repro.experiments.executor import (
    METRICS,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    run_experiment,
    run_trial,
)
from repro.experiments.spec import ExperimentSpec, MacSpec, TrialSpec
from repro.net.testbed import Testbed
from repro.service.faults import FaultPlan, FaultRule


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


def _trials(n, prefix="wt", metrics=()):
    """Cheap real trials (~0.1s wall each) with distinct run seeds."""
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  i, 4.0, 1.0, metrics=metrics)
        for i in range(n)
    ]


def _sigkill_in_worker(parent_pid):
    """SIGKILL the calling process — a stand-in for an OOM-killed pool
    worker. Refuses to run in the test process itself."""
    if os.getpid() == parent_pid:
        raise RuntimeError("the worker killer ran in the test process")
    os.kill(os.getpid(), signal.SIGKILL)


class TestWatchdog:
    def test_exhausted_budget_raises_trial_hung(self, testbed):
        with pytest.raises(TrialHungError, match="wall-clock budget"):
            run_trial(testbed, _trials(1)[0], timeout_s=0.0)

    def test_armed_watchdog_is_bit_identical(self, testbed):
        trial = _trials(1)[0]
        bare = run_trial(testbed, trial)
        watched = run_trial(testbed, trial, timeout_s=60.0)
        assert watched.to_json() == bare.to_json()

    def test_injected_hang_counts_against_the_budget(self, testbed):
        """A hang injected before the run (the fault-plan model of a
        stuck trial) still trips the watchdog: the deadline is armed
        before the hook fires."""
        trial = _trials(1)[0]
        plan = FaultPlan([FaultRule(site="trial.run", key=trial.trial_id,
                                    action="hang", hang_s=0.3, times=0)])
        with pytest.raises(TrialHungError):
            run_trial(testbed, trial, timeout_s=0.1, fault_hook=plan.fire)

    def test_serial_backend_raises_a_trial_error(self, testbed):
        with pytest.raises(KeyError, match="no_such_metric"):
            SerialBackend().run(testbed, _trials(1, metrics=("no_such_metric",)))


class TestBrokenPool:
    def test_a_trial_error_propagates_from_the_pool(self, testbed):
        trials = _trials(2) + _trials(1, "bad", metrics=("no_such_metric",))
        with pytest.raises(KeyError, match="no_such_metric"):
            ProcessPoolBackend(2).run(testbed, trials)

    def test_persistent_killer_raises_without_on_error(self, testbed,
                                                       monkeypatch):
        """A trial that kills its worker sinks the pool: run raises
        BrokenProcessPool to the caller, with no handler to swallow it."""
        parent = os.getpid()

        def killer(net, result, spec):
            _sigkill_in_worker(parent)

        # the forked pool inherits the registry entry
        monkeypatch.setitem(METRICS, "test_killer", killer)
        with pytest.raises(BrokenProcessPool):
            ProcessPoolBackend(2).run(
                testbed, _trials(1, "killer", metrics=("test_killer",)))

    def test_run_experiment_still_flushes_store_on_pool_death(
        self, testbed, tmp_path, monkeypatch
    ):
        """A worker SIGKILLed mid-sweep breaks the pool: run_experiment
        raises BrokenProcessPool, the trials that finished before it are
        already on disk, and a resumed run completes bit-identical to the
        serial one."""
        armed = tmp_path / "armed"
        armed.touch()
        parent = os.getpid()

        def killer(net, result, spec):
            if spec.trial_id == "fx/3" and armed.exists():
                time.sleep(0.5)  # let the earlier trials finish first
                _sigkill_in_worker(parent)
            return 0

        # the forked pool inherits the registry entry
        monkeypatch.setitem(METRICS, "test_killer", killer)
        trials = _trials(4, "fx", metrics=("test_killer",))
        spec = ExperimentSpec("flush", tuple(trials),
                              reduce=lambda results: results)
        path = str(tmp_path / "flush.json")
        with pytest.raises(BrokenProcessPool):
            run_experiment(spec, testbed, backend=ProcessPoolBackend(2),
                           store=ResultStore(path))
        # the first two trials finish before the killer is even scheduled
        # (two workers, FIFO); their results must have been persisted
        persisted = {r.trial_id for r in ResultStore(path).results()}
        assert {"fx/0", "fx/1"} <= persisted
        assert "fx/3" not in persisted

        armed.unlink()
        resumed = run_experiment(spec, testbed, backend=ProcessPoolBackend(2),
                                 store=ResultStore(path))
        serial = SerialBackend().run(testbed, trials)
        assert [r.to_json() for r in resumed] == [r.to_json() for r in serial]

    def test_cli_names_resume_when_a_worker_dies(self, tmp_path, monkeypatch,
                                                 capsys):
        from repro.cli import main

        parent = os.getpid()

        def killer(testbed, spec):
            if spec.trial_id == "fig12/1/cs_on":
                _sigkill_in_worker(parent)
            return run_trial(testbed, spec)

        monkeypatch.setattr(executor, "run_trial", killer)
        out = str(tmp_path / "fig12.json")
        argv = ["fig12", "--seed", "1", "--jobs", "2", "--out", out]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert "worker process died" in message and "\n" not in message
        assert f"--out {out} --resume" in message
        cached = len(ResultStore(out))
        assert 0 < cached < 12

        monkeypatch.undo()
        assert main(argv + ["--resume"]) == 0
        assert f"{cached} trials cached" in capsys.readouterr().out
        assert len(ResultStore(out)) == 12


#: Runs a two-worker pool whose trials print their worker's pid and then
#: sleep far past the test's deadline.
_ORPHAN_SCRIPT = r"""
import os, time
from repro.experiments import executor
from repro.experiments.spec import MacSpec, TrialSpec
from repro.net.testbed import Testbed

def slow(testbed, spec, **_):
    os.write(1, f"{os.getpid()}\n".encode())  # one write: lines stay whole
    time.sleep(60)

executor.run_trial = slow
trials = [TrialSpec(f"o/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                    i, 4.0, 1.0) for i in range(2)]
executor.ProcessPoolBackend(2).run(Testbed(seed=1), trials)
"""


def _alive(pid):
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="PR_SET_PDEATHSIG is Linux-only")
class TestOrphanGuard:
    def test_workers_exit_when_their_parent_is_killed(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT],
                                stdout=subprocess.PIPE, env=env, text=True)
        pids = []
        try:
            pids = [int(proc.stdout.readline()) for _ in range(2)]
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10.0
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, pids)), "orphaned pool workers"
        finally:
            proc.kill()
            proc.stdout.close()
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)
