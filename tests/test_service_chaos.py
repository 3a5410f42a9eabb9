"""The acceptance-level fault drills: the deterministic chaos soak
(``cli chaos``) end to end, and graceful SIGTERM drain of a real
``cli serve`` subprocess with resume across the restart."""

import os
import signal
import subprocess
import sys
import threading
import time

from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    TrialSpec,
    experiment_to_wire,
)
from repro.service import cli as service_cli
from repro.service.http_api import ServiceClient


class TestChaosSoak:
    def test_soak_passes_end_to_end(self, tmp_path, capsys):
        """The whole drill: hang victim quarantined by the watchdog, a
        store-write flake and a sqlite busy burst absorbed by retries, an
        injected coordinator crash survived by restart+resume — ending
        done_partial with one row per trial and survivors bit-identical
        to a fault-free serial run. Every check is printed and asserted
        by the command's exit code."""
        rc = service_cli.main([
            "chaos",
            "--builder", "fig12",
            "--scale", "smoke",
            "--seed", "1",
            "--fault-seed", "0",
            "--data-dir", str(tmp_path / "chaos"),
            "--trial-timeout", "1.0",
            "--hang-s", "1.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "[chaos PASS]" in out
        assert "coordinator crash #1" in out
        assert "FAIL" not in out


def _cheap_trials(n, prefix="sig"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  i, 4.0, 1.0)
        for i in range(n)
    ]


class _Serve:
    """A real ``python -m repro.cli serve`` subprocess on an ephemeral
    port, with its stdout collected on a reader thread."""

    def __init__(self, data_dir):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--data-dir", data_dir],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        self.lines = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.append(line)

    def url(self, timeout=30.0):
        """Block until the server prints its bound address."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if "[sweep service on " in line:
                    return line.split("[sweep service on ", 1)[1].split()[0]
            if self.proc.poll() is not None:
                raise AssertionError(
                    "serve exited early:\n" + "".join(self.lines))
            time.sleep(0.05)
        raise AssertionError(
            "serve never announced its port:\n" + "".join(self.lines))

    def output(self):
        return "".join(self.lines)

    def terminate_and_wait(self, timeout=30.0):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        self.proc.stdout.close()


class TestGracefulShutdown:
    def test_sigterm_drains_persists_and_resumes(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        spec = ExperimentSpec("sigsweep", tuple(_cheap_trials(40)),
                              reduce=lambda results: results)
        first = _Serve(data_dir)
        try:
            with ServiceClient(first.url(), timeout=10.0) as client:
                reply = client.submit_experiment(experiment_to_wire(spec),
                                                 testbed_seed=1)
                job_id = reply["job_id"]
                # let it get properly mid-job before pulling the plug
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if client.job(job_id)["completed"] >= 2:
                        break
                    time.sleep(0.05)
                # The drain must not wait for our kept-alive connection.
                assert first.terminate_and_wait() == 0, first.output()
        finally:
            first.kill()
        out = first.output()
        assert "SIGTERM: draining" in out
        assert "[stopped: state persisted" in out

        # same data dir: the next serve resumes the drained job and
        # finishes it (cache hits for everything already completed)
        second = _Serve(data_dir)
        try:
            with ServiceClient(second.url(), timeout=10.0) as client:
                final = None
                for progress in client.tail(job_id, wait=5.0):
                    final = progress
            assert final is not None and final["state"] == "done"
            assert final["completed"] == 40 and final["quarantined"] == 0
            assert second.terminate_and_wait() == 0, second.output()
        finally:
            second.kill()
        assert "resumed 1 open job(s)" in second.output()

    def test_sigterm_with_idle_server_exits_clean(self, tmp_path):
        serve = _Serve(str(tmp_path / "idle"))
        try:
            with ServiceClient(serve.url(), timeout=10.0) as client:
                client.health()
                # An open kept-alive connection does not hold up the exit.
                assert serve.terminate_and_wait() == 0, serve.output()
        finally:
            serve.kill()
        assert "[stopped: state persisted" in serve.output()
