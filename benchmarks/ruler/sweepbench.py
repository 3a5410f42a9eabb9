"""Sweep workloads: one untraced round against real ``serve``/``work``
processes, or the traced per-layer pass against an in-process service.

Closed loop, one client: a sweep is submitted with
``ServiceClient.submit_experiment`` and observed by one long-poll parked at
``cursor=total`` (``tail`` would add a request per trial). ``sweep_local``
lets the coordinator's own thread execute; ``sweep_fleet`` registers one
``cli work`` daemon first, so the local thread stands down and every trial
crosses HTTP twice (lease, upload). At most ``serve`` + one ``work`` are busy
at a time, matching the box's two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro.service.coordinator as coordinator_module
import repro.service.worker as worker_module
from repro.analysis import stats
from repro.experiments.executor import ResultStore, SerialBackend
from repro.experiments.spec import TrialSpec
from repro.service.coordinator import Coordinator
from repro.service.http_api import ServiceClient, make_server, serve_in_thread
from repro.service.jobs import TERMINAL_STATES
from repro.service.queue import InMemoryJobQueue
from repro.service.runtable import RunTable
from repro.service.worker import Worker

import simbench
import spin
import workloads
from spans import Recorder, clipped

WORKER_ID = "ruler-w"
BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 150.0

#: The worker-fleet verbs of ServiceClient: what a trial costs in requests.
FLEET_VERBS = ("register_worker", "lease_job", "heartbeat", "upload_result", "ack_job")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _reap(proc: Optional[subprocess.Popen]) -> None:
    """terminate -> wait -> kill: a child never outlives its round."""
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live pid, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        # comm may hold spaces; the fields after the closing paren do not.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServiceProcesses:
    """``cli serve`` (+ one ``cli work``) on a fresh data dir and an
    ephemeral port; always reaped, data dir always removed."""

    def __init__(self, workdir: str, fleet: bool):
        self.workdir = workdir
        self.fleet = fleet
        self.serve: Optional[subprocess.Popen] = None
        self.work: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self._logs = []

    def __enter__(self) -> "ServiceProcesses":
        os.makedirs(self.workdir, exist_ok=True)
        try:
            self._boot()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        _reap(self.work)
        _reap(self.serve)
        for log in self._logs:
            log.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _spawn(self, name: str, *args: str) -> subprocess.Popen:
        log = open(os.path.join(self.workdir, f"{name}.log"), "w")
        self._logs.append(log)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=log,
            stderr=subprocess.STDOUT,
        )

    def _boot(self) -> None:
        self.serve = self._spawn(
            "serve",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--data-dir",
            os.path.join(self.workdir, "data"),
        )
        url = self._await(self._served_url, self.serve, "serve to print its URL")
        self.client = ServiceClient(url)
        self._await(self._healthy, self.serve, "/healthz")
        if self.fleet:
            self.work = self._spawn(
                "work",
                "work",
                "--url",
                url,
                "--poll",
                "0.05",
                "--worker-id",
                WORKER_ID,
            )
            self._await(self._registered, self.work, "the worker to register")

    def _await(self, probe, proc: subprocess.Popen, what: str):
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"child exited ({proc.returncode}) before {what}")
            got = probe()
            if got:
                return got
            time.sleep(0.02)
        raise RuntimeError(f"timed out waiting for {what}")

    def _served_url(self) -> Optional[str]:
        with open(os.path.join(self.workdir, "serve.log")) as fh:
            for line in fh:
                if "sweep service on http://" in line:
                    return line.split("sweep service on ", 1)[1].split()[0]
        return None

    def _healthy(self) -> bool:
        try:
            return bool(self.client.health().get("ok"))
        except OSError:
            return False

    def _registered(self) -> bool:
        return any(
            w["worker_id"] == WORKER_ID and w["active"] for w in self.client.workers()
        )

    def pids(self) -> List[int]:
        return [p.pid for p in (self.serve, self.work) if p is not None]

    def cpu_seconds(self) -> float:
        return sum(_proc_cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        return max(_proc_peak_rss_mb(pid) for pid in self.pids())


class PausedSpins:
    """Spins interleaved with a running sweep, ten a second.

    A sweep lasts seconds and this box's speed moves within seconds, so a
    spin read before and after it says little about the time in between
    (normalised that way, ten runs spread 23 %). Instead a thread stops
    ``serve``/``work`` every 0.1 s (SIGSTOP), times one spin while they are
    frozen, and lets them go (SIGCONT): the sweep becomes ``S work S work ...
    S`` exactly like a simulator repetition, each stretch of work divided by
    the spins on either side of it. Paused time is not counted. The service
    never runs beside the spin, so the load stays within the box's two cores.
    """

    GAP_S = 0.1

    def __init__(self, svc: ServiceProcesses):
        self._svc = svc
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._error: Optional[BaseException] = None
        self.running_s = 0.0
        self.cpu_s = 0.0
        self.wall_spins = 0.0
        self.cpu_spins = 0.0
        self.spin_ms: List[float] = []

    def __enter__(self) -> "PausedSpins":
        self._before = self._reading()
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        if self._error is not None and exc[0] is None:
            raise self._error

    def _reading(self) -> Tuple[float, float, float]:
        """(wall spin, CPU spin, service CPU seconds so far), taken while
        the service is frozen."""
        pids = self._svc.pids()
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            cpu = self._svc.cpu_seconds()
            return spin.timed_spin() + (cpu,)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGCONT)

    def _run(self) -> None:
        try:
            while True:
                done = self._done.wait(self.GAP_S)
                worked = time.perf_counter() - self._t0
                after = self._reading()
                before = self._before
                cpu = after[2] - before[2]
                self.running_s += worked
                self.cpu_s += cpu
                self.wall_spins += worked / ((before[0] + after[0]) / 2.0)
                self.cpu_spins += cpu / ((before[1] + after[1]) / 2.0)
                self.spin_ms.append(after[0] * 1e3)
                self._before = after
                self._t0 = time.perf_counter()
                if done:
                    return
        except BaseException as exc:  # surfaced by __exit__ on the caller
            self._error = exc


# ----------------------------------------------------------------------
# Driving one sweep and checking it
# ----------------------------------------------------------------------
def _wait_done(client: ServiceClient, job_id: str, total: int) -> dict:
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        progress = client.job(job_id, wait=30.0, cursor=total)
        if progress["state"] in TERMINAL_STATES:
            return progress
    raise RuntimeError(f"job {job_id} not terminal after {JOB_TIMEOUT_S}s")


def _warm_service(client: ServiceClient) -> None:
    """One calibration job: the server (and the worker) build and cache
    their testbed and import every lazy module before a sweep is timed."""
    job = client.submit_builder("calibration", scale="smoke", seed=workloads.WORLD_SEED)
    final = _wait_done(client, job["job_id"], job["trials"])
    if final["state"] != "done":
        raise RuntimeError(f"warm-up job ended {final['state']}: {final['error']}")


def _submit_and_wait(client, name: str, wire_trials: List[dict]) -> dict:
    job = client.submit_experiment(
        {"name": name, "trials": wire_trials}, testbed_seed=workloads.WORLD_SEED
    )
    return _wait_done(client, job["job_id"], len(wire_trials))


def serial_reference(
    testbed, specs: List[TrialSpec]
) -> Tuple[Dict[str, list], float]:
    """(trial_id -> ``flow_mbps`` exactly as ``SerialBackend`` produces it,
    in JSON form; the wall seconds that took)."""
    t0 = time.perf_counter()
    results = SerialBackend().run(testbed, specs)
    wall = time.perf_counter() - t0
    return {r.trial_id: r.to_json()["flow_mbps"] for r in results}, wall


def shared_reference(testbed, specs: List[TrialSpec], cache_dir: str) -> Dict[str, list]:
    """The serial reference, computed by a run's first round and read back
    by the others (floats survive the JSON round trip exactly)."""
    path = os.path.join(cache_dir, f"reference-{workloads.inputs_digest(specs)}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    rows, _wall = serial_reference(testbed, specs)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(rows, fh)
    os.replace(tmp, path)
    return rows


def perturb(reference: Dict[str, list], specs: List[TrialSpec]) -> None:
    """Self-test of the gate: one reference value moves by one ulp."""
    first = reference[specs[0].trial_id][0]
    first[2] = math.nextafter(first[2], math.inf)


def verify_sweep(
    client: ServiceClient,
    name: str,
    specs: List[TrialSpec],
    reference: Dict[str, list],
    final: dict,
) -> Tuple[int, List[dict]]:
    """Failed operations of one sweep (out of ``len(specs) + 1``): a job not
    ``done``, and per trial a missing, duplicated, non-ok or fingerprint- or
    ``flow_mbps``-mismatching run-table row. Also returns the rows."""
    problems: List[str] = []
    if final["state"] != "done" or final["completed"] != len(specs):
        problems.append(f"job ended {final['state']} with {final['completed']} done")
    rows = client.runs(
        experiment=name, limit=len(specs) + 10, with_payload=True
    )["runs"]
    by_key: Dict[tuple, List[dict]] = {}
    for row in rows:
        by_key.setdefault((row["trial_id"], row["fingerprint"]), []).append(row)
    for spec in specs:
        got = by_key.pop((spec.trial_id, spec.fingerprint()), [])
        if len(got) != 1:
            problems.append(f"{spec.trial_id}: {len(got)} rows")
        elif got[0]["status"] != "ok":
            problems.append(f"{spec.trial_id}: status {got[0]['status']}")
        elif got[0]["payload"]["flow_mbps"] != reference[spec.trial_id]:
            problems.append(f"{spec.trial_id}: flow_mbps differs from SerialBackend")
    for key in by_key:
        problems.append(f"unexpected row {key}")
    for line in problems[:10]:
        print(f"[ruler] {name}: {line}")
    return len(problems), rows


# ----------------------------------------------------------------------
# The untraced round
# ----------------------------------------------------------------------
def run_round(
    workload: str,
    seed: int,
    seconds: float,
    started_at: float,
    trials: int,
    workdir: str,
    round_index: int,
    corrupt: bool,
    count_calls: bool,
) -> dict:
    fleet = workload == "sweep_fleet"
    testbed, specs, _timings = workloads.build_sweep(seed, trials)
    wire_trials = [t.to_wire() for t in specs]
    spin.warm_up()
    sweeps: List[dict] = []
    finals: List[Tuple[str, dict]] = []
    with ServiceProcesses(os.path.join(workdir, f"round-{round_index}"), fleet) as svc:
        _warm_service(svc.client)
        setup_s = time.time() - started_at
        t_start = time.perf_counter()
        while True:
            name = f"ruler-{workload}-{seed}-{round_index}-{len(sweeps)}"
            with PausedSpins(svc) as spins:
                final = _submit_and_wait(svc.client, name, wire_trials)
            sweeps.append(
                {
                    "wall_s": spins.running_s,
                    "cpu_s": spins.cpu_s,
                    "spin_ms": statistics.median(spins.spin_ms),
                    "spins_per_trial": spins.wall_spins / len(specs),
                    "cpu_spins_per_trial": spins.cpu_spins / len(specs),
                }
            )
            finals.append((name, final))
            if (time.perf_counter() - t_start) + spins.running_s > seconds:
                break
        measured_s = time.perf_counter() - t_start
        # Checked after the timed part: the reference costs client CPU.
        reference = shared_reference(testbed, specs, workdir)
        if corrupt:
            perturb(reference, specs)
        failed = sum(
            verify_sweep(svc.client, name, specs, reference, final)[0]
            for name, final in finals
        )
        peak_rss_mb = svc.peak_rss_mb()
    out = {
        "kind": "sweep",
        "setup_s": setup_s,
        "trials": len(specs),
        "sweeps": sweeps,
        "attempted": (len(specs) + 1) * len(sweeps),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "inputs_digest": workloads.inputs_digest(specs),
        "spec_sha256": [h[:16] for h in workloads.spec_hashes(specs)],
        "measured_s": measured_s,
    }
    if count_calls:
        # The simulator's share of a sweep trial, as an exact count: the
        # sweep's first 48 specs (four of each kind) under cProfile.
        sample = specs[:48]
        out["calls"] = simbench.profile_pass(testbed, sample)["calls"]
        out["calls_trials"] = len(sample)
    return out


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
class InProcessService:
    """Coordinator + HTTP server thread (+ a Worker thread) in this
    interpreter, so the span recorder can see every layer."""

    def __init__(self, data_dir: str, fleet: bool, testbed):
        self.data_dir = data_dir
        self.coordinator = Coordinator(data_dir, testbed_factory=lambda seed: testbed)
        self.server = make_server(self.coordinator, port=0)
        self.coordinator.start(workers=1)
        serve_in_thread(self.server)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.client = ServiceClient(self.url)
        self.worker: Optional[Worker] = None
        self._worker_thread: Optional[threading.Thread] = None
        if fleet:
            self.worker = Worker(
                ServiceClient(self.url),
                worker_id=WORKER_ID,
                poll_s=0.05,
                testbed_factory=lambda seed: testbed,
            )
            self._worker_thread = threading.Thread(target=self.worker.run, daemon=True)
            self._worker_thread.start()
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while not self.coordinator.remote_workers_active():
                if time.monotonic() > deadline:
                    raise RuntimeError("in-process worker never registered")
                time.sleep(0.01)

    def close(self) -> None:
        if self.worker is not None:
            self.worker.stop()
            self._worker_thread.join(timeout=15)
        self.server.shutdown()
        self.server.server_close()
        self.coordinator.stop()
        self.coordinator.runtable.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def _trial_of_result(_self, result, *args, **kwargs):
    return result.trial_id


def _trial_of_upload(_self, _job, _worker, _token, wire, **kwargs):
    return wire["trial_id"]


def _install_spans(rec: Recorder) -> List[int]:
    """Wrap each layer's public verbs; returns the call counter of
    ``TrialSpec.fingerprint``, which is too hot to span."""
    rec.wrap(ServiceClient, "submit_experiment", "http_api")
    rec.wrap(ServiceClient, "job", "http_api")
    for verb in FLEET_VERBS:
        rec.wrap(
            ServiceClient,
            verb,
            "http_api",
            _trial_of_upload if verb == "upload_result" else None,
        )
    for verb in ("lease", "extend", "verify", "ack"):
        rec.wrap(InMemoryJobQueue, verb, "queue")
    for verb in ("submit", "_run_job", "lease_for_remote", "remote_ack"):
        rec.wrap(Coordinator, verb, "coordinator")
    rec.wrap(
        Coordinator,
        "record_remote_result",
        "coordinator",
        lambda _self, _job, _worker, _token, result, **kwargs: result.trial_id,
    )
    rec.wrap(RunTable, "record_trial", "runtable", lambda _s, _e, r, **kw: r.trial_id)
    rec.wrap(RunTable, "upsert_job", "runtable")
    rec.wrap(RunTable, "trial_status", "runtable", lambda _s, _e, tid, _f: tid)
    rec.wrap(ResultStore, "put", "store", _trial_of_result)
    rec.wrap(ResultStore, "get", "store", lambda _s, spec: spec.trial_id)
    rec.wrap(ResultStore, "has", "store", lambda _s, tid, _f: tid)
    rec.wrap(
        ResultStore, "save", "store", note_of=lambda store: os.path.getsize(store.path)
    )

    def trace_of_trial(_testbed, spec, **kwargs):
        return spec.trial_id

    rec.wrap(coordinator_module, "run_trial", "run_trial", trace_of_trial)
    rec.wrap(worker_module, "run_trial", "run_trial", trace_of_trial)
    rec.wrap(Worker, "run_one", "worker")
    return rec.count(TrialSpec, "fingerprint")


def _spec_costs(specs: List[TrialSpec]) -> Dict[str, float]:
    """Microseconds per ``to_wire`` / ``from_wire`` / ``fingerprint``."""

    def per_call_us(fn, items) -> float:
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        return (time.perf_counter() - t0) * 1e6 / len(items)

    wires = [t.to_wire() for t in specs]
    return {
        "spec.to_wire_us": per_call_us(TrialSpec.to_wire, specs),
        "spec.from_wire_us": per_call_us(TrialSpec.from_wire, wires),
        "spec.fingerprint_us": per_call_us(TrialSpec.fingerprint, specs),
    }


def _cycle_metrics(rows: List[dict]) -> Dict[str, float]:
    """Trial-to-trial cycle of the coordinator, from run-table rows alone:
    the gap between consecutive ``recorded_at`` stamps, the part of it the
    trial's own ``wall_time`` does not explain, and how the gap grows from
    the first decile of a sweep to the last (whole-store and whole-job
    rewrites per trial make it > 1)."""
    stamps = sorted(row["recorded_at"] for row in rows)
    ordered = sorted(rows, key=lambda r: r["recorded_at"])
    gaps = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    if not gaps:
        return {
            "coordinator.cycle_ms_p50": 0.0,
            "coordinator.cycle_ms_p99": 0.0,
            "coordinator.overhead_ms_p50": 0.0,
            "coordinator.cycle_growth": 0.0,
        }
    overheads = [
        gap - (row["wall_time"] or 0.0) * 1e3 for gap, row in zip(gaps, ordered[1:])
    ]
    decile = max(1, len(gaps) // 10)
    return {
        "coordinator.cycle_ms_p50": statistics.median(gaps),
        "coordinator.cycle_ms_p99": stats.percentile(gaps, 99),
        "coordinator.overhead_ms_p50": statistics.median(overheads),
        "coordinator.cycle_growth": statistics.fmean(gaps[-decile:])
        / statistics.fmean(gaps[:decile]),
    }


def _in_process_sweep(data_dir, fleet, testbed, specs, wire_trials, reference, name):
    """(failed ops, rows, submit->done window) of one in-process sweep."""
    service = InProcessService(data_dir, fleet, testbed)
    try:
        _warm_service(service.client)
        t0 = time.perf_counter()
        final = _submit_and_wait(service.client, name, wire_trials)
        window = (t0, time.perf_counter())
        failed, rows = verify_sweep(service.client, name, specs, reference, final)
    finally:
        service.close()
    return failed, rows, window


def run_traced(
    workload: str, seed: int, trials: int, workdir: str, trace_path: str, corrupt: bool
) -> dict:
    fleet = workload == "sweep_fleet"
    testbed, specs, timings = workloads.build_sweep(seed, trials)
    wire_trials = [t.to_wire() for t in specs]
    metrics: Dict[str, float] = dict(timings)
    metrics["network.assemble_ms_per_trial"] = simbench.assemble_ms(testbed, specs)
    metrics.update(_spec_costs(specs))

    # The same trials through SerialBackend, then through the service with
    # no wrappers, then with them: overhead of the service, and of tracing.
    reference, serial_wall = serial_reference(testbed, specs)
    if corrupt:
        perturb(reference, specs)
    failed_plain, rows, plain = _in_process_sweep(
        os.path.join(workdir, "plain"),
        fleet,
        testbed,
        specs,
        wire_trials,
        reference,
        f"ruler-plain-{workload}-{seed}",
    )
    rec = Recorder()
    fingerprints = _install_spans(rec)
    try:
        failed_traced, _rows, window = _in_process_sweep(
            os.path.join(workdir, "traced"),
            fleet,
            testbed,
            specs,
            wire_trials,
            reference,
            f"ruler-traced-{workload}-{seed}",
        )
    finally:
        rec.unwrap_all()
    rec.write(trace_path)

    n = len(specs)
    plain_wall = plain[1] - plain[0]
    traced_wall = window[1] - window[0]
    metrics["service.overhead_ratio"] = plain_wall / serial_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics.update(_cycle_metrics(rows))
    metrics.update(_span_metrics(rec, window, n))
    metrics["spec.fingerprints_per_trial"] = fingerprints[0] / n
    return {
        "kind": "sweep",
        "metrics": metrics,
        "attempted": 2 * (n + 1),
        "failed": failed_plain + failed_traced,
        "trace_file": trace_path,
    }


def _span_metrics(rec: Recorder, window, n: int) -> Dict[str, float]:
    """Fold the traced sweep's spans (clipped to submit->done) into the
    per-layer metrics."""
    wall = window[1] - window[0]
    selfs = rec.self_times(window)
    inside = [s for s in rec.spans if clipped(s, window) > 0.0]

    def named(suffix: str) -> List:
        return [s for s in inside if s.name.endswith(suffix)]

    def layer(name: str) -> List:
        return [s for s in inside if s.layer == name]

    def busy(spans) -> float:
        return sum(clipped(s, window) for s in spans)

    def self_time(spans) -> float:
        return sum(selfs[s.id] for s in spans)

    def ms(spans) -> List[float]:
        return [s.duration * 1e3 for s in spans]

    def pct(values: List[float], q: float) -> float:
        # The run-table's own percentile; a layer with no samples reads 0.
        return stats.percentile(values, q) if values else 0.0

    m: Dict[str, float] = {}
    fleet_calls = [s for verb in FLEET_VERBS for s in named(f"ServiceClient.{verb}")]
    uploads = named("ServiceClient.upload_result")
    m["http_api.submit_ms"] = sum(ms(named("ServiceClient.submit_experiment")))
    # The polls that came back inside the window: the wait for the job.
    m["http_api.lease_ms"] = 1e3 * busy(
        s for s in named("ServiceClient.lease_job") if s.end <= window[1]
    )
    m["http_api.upload_ms_p50"] = pct(ms(uploads), 50)
    m["http_api.upload_ms_p99"] = pct(ms(uploads), 99)
    m["http_api.requests_per_trial"] = len(fleet_calls) / n
    served = (
        named("Coordinator.lease_for_remote")
        + named("Coordinator.record_remote_result")
        + named("Coordinator.remote_ack")
    )
    m["http_api.transport_ms_per_trial"] = (
        max(0.0, busy(fleet_calls) - busy(served)) * 1e3 / n if fleet_calls else 0.0
    )

    queue = layer("queue")
    leases = [s for s in named("InMemoryJobQueue.lease") if s.end <= window[1]]
    m["queue.calls_per_trial"] = len(queue) / n
    m["queue.busy_us_per_trial"] = self_time(queue) * 1e6 / n
    m["queue.lease_us"] = statistics.median(
        [clipped(s, window) * 1e6 for s in leases] or [0.0]
    )

    m["coordinator.self_ms_per_trial"] = self_time(layer("coordinator")) * 1e3 / n

    runtable = layer("runtable")
    records = named("RunTable.record_trial")
    upserts = named("RunTable.upsert_job")
    m["runtable.record_trial_ms_p50"] = pct(ms(records), 50)
    m["runtable.record_trial_ms_p99"] = pct(ms(records), 99)
    m["runtable.upsert_job_ms_p50"] = pct(ms(upserts), 50)
    m["runtable.upsert_job_ms_p99"] = pct(ms(upserts), 99)
    m["runtable.busy_ms_per_trial"] = busy(runtable) * 1e3 / n
    m["runtable.calls_per_trial"] = len(runtable) / n

    store = layer("store")
    saves = named("ResultStore.save")
    m["store.save_ms_p50"] = pct(ms(saves), 50)
    m["store.save_ms_p99"] = pct(ms(saves), 99)
    m["store.busy_ms_per_trial"] = busy(store) * 1e3 / n
    m["store.bytes_per_trial"] = sum(s.note or 0 for s in saves) / n

    trials = layer("run_trial")
    worker_runs = named("Worker.run_one")
    worker_trials = named("worker.run_trial")
    m["worker.run_trial_ms_p50"] = pct(ms(worker_trials), 50)
    m["worker.busy_share"] = busy(worker_runs) / wall
    m["worker.wait_ms_per_trial"] = (
        max(0.0, busy(worker_runs) - busy(worker_trials)) * 1e3 / n
    )

    # Acceptance: the five layers a local sweep is made of explain its wall.
    explained = (
        self_time(store)
        + self_time(runtable)
        + self_time(queue)
        + self_time(layer("coordinator"))
        + self_time(trials)
    )
    m["trace.coverage_share"] = explained / wall
    return m
