"""CI service-smoke gate: the HTTP sweep path must match the serial path.

Boots ``python -m repro.cli serve`` as a real subprocess (ephemeral port,
throwaway data dir), submits the fig12 smoke sweep over HTTP, tails the
job to completion, and then checks the whole pipeline end to end:

* the job finishes ``done`` with every trial completed;
* the run-table holds exactly one row per trial of the sweep, and every
  ``ok`` row carries the ``worker_id`` and fencing ``token`` of the lease
  that recorded it (local threads and remote workers alike);
* every flow throughput served back over HTTP is **bit-identical** to
  running the same spec in-process through ``SerialBackend``;
* the run-table's percentile summary equals
  ``repro.analysis.stats.percentile`` over the same totals;
* the ``calibration`` smoke spec, built on testbed 1 at config seed 1 and
  submitted once with ``testbed_seed`` 1 and once with 2, lands one row
  per trial and world: each job's rows sit under their world's key
  (``runtable.row_fingerprint``) and equal ``SerialBackend`` on that
  testbed. Rows of two testbeds must never collide.

With ``--chaos`` the same sweep runs under the canned ``smoke-chaos``
fault plan (see :func:`repro.service.faults.canned_plan`) and the gate
additionally proves the failure story: the client's first submit response
is truncated on the wire and the idempotent retry deduplicates
server-side (one job, not two); a store-write failure and a sqlite busy
burst are absorbed by retries; an injected ``os._exit`` kills the server
mid-job and a restarted server resumes the job to ``done`` — with the
final rows still bit-identical to the serial reference.

With ``--workers`` the sweep is executed by a *remote fleet* instead of
the server's local threads: two ``python -m repro.cli work`` daemons
(running the canned ``worker-chaos`` transport fault plan) lease the job
over HTTP, and the gate SIGKILLs whichever worker holds the lease as soon
as its first row lands. The lease must be reaped, the survivor must
re-lease and finish from the server-side cache sweep, and the final rows
must be bit-identical to serial with zero duplicates — one row per trial
even though uploads were dropped, delayed, duplicated, and truncated and
a worker died mid-lease.

Usage::

    PYTHONPATH=src python benchmarks/check_service_smoke.py [--seed 1]
    PYTHONPATH=src python benchmarks/check_service_smoke.py --chaos
    PYTHONPATH=src python benchmarks/check_service_smoke.py --workers

Exits non-zero (with a diff report) on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import stats  # noqa: E402
from repro.experiments.executor import SerialBackend  # noqa: E402
from repro.experiments.runners import (  # noqa: E402
    ExperimentScale,
    build_exposed_terminals,
    build_single_link_calibration,
)
from repro.experiments.spec import experiment_to_wire  # noqa: E402
from repro.net.testbed import Testbed  # noqa: E402
from repro.service.http_api import ServiceClient  # noqa: E402
from repro.service.runtable import row_fingerprint  # noqa: E402


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for_health(client: ServiceClient, proc, deadline_s: float = 30.0) -> None:
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with {proc.returncode}")
        try:
            if client.health().get("ok"):
                return
        except Exception:
            time.sleep(0.2)
    raise RuntimeError("server did not become healthy in time")


def serial_reference(seed: int):
    """The in-process reference: same builder call the server makes (the
    submitted seed feeds both the testbed and the builder's scenario/run
    seed), run through SerialBackend."""
    testbed = Testbed(seed=seed)
    spec = build_exposed_terminals(
        testbed, scale=ExperimentScale.smoke(), seed=seed)
    reference = {r.trial_id: r
                 for r in SerialBackend().run(testbed, list(spec.trials))}
    return spec, reference


def start_serve(port: int, data_dir: str, env: dict, extra=()):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--data-dir", data_dir, *extra],
        env=env,
    )


def start_work(url: str, worker_id: str, data_dir: str, env: dict):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "work",
         "--url", url, "--worker-id", worker_id, "--poll", "0.2",
         "--fault-plan", "worker-chaos",
         "--fault-state", os.path.join(data_dir, f"faults-{worker_id}")],
        env=env,
    )


def stop_serve(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()


def check_results(client, spec, reference, final, failures) -> None:
    """The shared postcondition: job done, one row per trial, every ok row
    stamped by its lease, every flow throughput bit-identical to serial,
    percentiles == analysis.stats."""
    if final is None or final["state"] != "done":
        failures.append(f"job did not finish done: {final}")
    elif final["completed"] != len(spec.trials):
        failures.append(
            f"completed {final['completed']} != {len(spec.trials)}")

    runs = client.runs(experiment=spec.name,
                       limit=len(spec.trials) + 10,
                       with_payload=True)
    rows = runs["runs"]
    if runs["counts"].get(spec.name) != len(spec.trials):
        failures.append(
            f"run-table rows {runs['counts'].get(spec.name)} != "
            f"{len(spec.trials)} trials")
    ids = [row["trial_id"] for row in rows]
    if len(ids) != len(set(ids)):
        failures.append(f"duplicate run-table rows: {sorted(ids)}")

    for row in rows:
        if row["status"] == "ok" and (
            row["worker_id"] is None or row["token"] is None
        ):
            failures.append(
                f"{row['trial_id']}: ok row not fenced by a lease "
                f"(worker_id={row['worker_id']}, token={row['token']})"
            )
        ref = reference.get(row["trial_id"])
        if ref is None:
            failures.append(f"unexpected row {row['trial_id']}")
            continue
        got = {(s, d): v for s, d, v in row["payload"]["flow_mbps"]}
        want = ref.flow_mbps
        if got != want:
            failures.append(
                f"{row['trial_id']}: HTTP {got} != serial {want}")

    totals = [sum(r.flow_mbps.values()) for r in reference.values()]
    summary = client.summary(spec.name, "total_mbps", qs=(10, 50, 90))
    for q in (10, 50, 90):
        want = stats.percentile(totals, q)
        got = summary["percentiles"][str(float(q))]
        if got != want:
            failures.append(f"p{q}: HTTP {got} != stats {want}")
    if summary["count"] != len(spec.trials):
        failures.append(
            f"summary count {summary['count']} != {len(spec.trials)}")


def check_two_worlds(client, timeout_s, failures) -> None:
    """One spec on testbeds 1 and 2 through the same server: each job's
    rows sit under its own world's key and equal its world's serial run."""
    testbeds = {seed: Testbed(seed=seed) for seed in (1, 2)}
    spec = build_single_link_calibration(
        testbeds[1], scale=ExperimentScale.smoke(), seed=1)
    jobs = {}
    for seed in testbeds:
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         testbed_seed=seed)
        jobs[seed] = reply["job_id"]
        print(f"[submitted {spec.name} on testbed {seed} as "
              f"{reply['job_id']}]")
    deadline = time.monotonic() + timeout_s
    for seed, job_id in jobs.items():
        final = None
        for final in client.tail(job_id, wait=10.0):
            if time.monotonic() > deadline:
                failures.append(f"testbed {seed}: tail timed out")
                break
        if final is None or final["state"] != "done":
            failures.append(f"testbed {seed}: job did not finish done: {final}")

    rows = client.runs(experiment=spec.name, limit=4 * len(spec.trials),
                       with_payload=True)["runs"]
    if len(rows) != 2 * len(spec.trials):
        failures.append(f"{spec.name}: {len(rows)} rows for "
                        f"{len(spec.trials)} trials on 2 testbeds")
    by_key = {(r["trial_id"], r["fingerprint"]): r for r in rows}
    for seed, job_id in jobs.items():
        for ref in SerialBackend().run(testbeds[seed], list(spec.trials)):
            row = by_key.get(
                (ref.trial_id, row_fingerprint(ref.fingerprint, seed)))
            where = f"testbed {seed} {ref.trial_id}"
            if row is None:
                failures.append(f"{where}: no row under its world's key")
                continue
            got = {(s, d): v for s, d, v in row["payload"]["flow_mbps"]}
            if (row["seed"], row["job_id"]) != (seed, job_id):
                failures.append(f"{where}: row of seed {row['seed']}, "
                                f"job {row['job_id']}")
            elif got != ref.flow_mbps:
                failures.append(f"{where}: HTTP {got} != serial {ref.flow_mbps}")


def run_smoke(args, env) -> int:
    port = free_port()
    failures = []
    with tempfile.TemporaryDirectory() as data_dir:
        proc = start_serve(port, data_dir, env)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            wait_for_health(client, proc)

            reply = client.submit_builder("fig12", scale="smoke",
                                          seed=args.seed)
            print(f"[submitted {reply['name']} as {reply['job_id']} "
                  f"({reply['trials']} trials)]")
            deadline = time.monotonic() + args.timeout
            final = None
            for progress in client.tail(reply["job_id"], wait=10.0):
                print(f"  {progress['state']:<9} "
                      f"{progress['completed']}/{progress['total']}")
                final = progress
                if time.monotonic() > deadline:
                    failures.append("tail timed out")
                    break

            spec, reference = serial_reference(args.seed)
            check_results(client, spec, reference, final, failures)
            check_two_worlds(client, args.timeout, failures)
        finally:
            stop_serve(proc)

    if failures:
        print("\nSERVICE SMOKE FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nservice smoke OK: HTTP sweep bit-identical to the serial path, "
          "run-table percentiles match analysis.stats, rows of testbeds "
          "1 and 2 kept apart")
    return 0


def run_chaos(args, env) -> int:
    """The fig12 smoke sweep under the canned ``smoke-chaos`` fault plan.

    Timeline this drives (all faults deterministic, the once-only ones
    token-gated in ``<data_dir>/faults`` so they survive the restart):

    1. the client's first submit response is truncated on the wire; the
       jittered retry carries the same idempotency key and the server
       hands back the job the first attempt created (``deduplicated``);
    2. a store-write OSError and a sqlite busy burst are absorbed by the
       retry layers;
    3. an injected ``os._exit`` kills the server mid-job (observed here
       as exit code :data:`~repro.service.faults.KILL_EXIT_CODE`);
    4. a restarted server on the same data dir resumes the job to
       ``done`` — and the rows must still be bit-identical to serial.
    """
    from repro.service.faults import KILL_EXIT_CODE, FaultPlan, FaultRule

    port = free_port()
    failures = []
    with tempfile.TemporaryDirectory() as data_dir:
        serve_args = ("--fault-plan", "smoke-chaos")
        proc = start_serve(port, data_dir, env, serve_args)
        second = None
        try:
            url = f"http://127.0.0.1:{port}"
            wait_for_health(ServiceClient(url), proc)

            # A client whose first submit response is lost on the wire:
            # the retry must deduplicate server-side via the key.
            client = ServiceClient(url, retries=2, retry_seed=0,
                                   fault_hook=FaultPlan([
                                       FaultRule(site="client.request",
                                                 key="/jobs",
                                                 action="truncate"),
                                   ]).fire)
            reply = client.submit_builder("fig12", scale="smoke",
                                          seed=args.seed,
                                          idempotency_key="chaos-submit-1")
            print(f"[submitted {reply['name']} as {reply['job_id']} "
                  f"(truncated once, deduplicated="
                  f"{reply.get('deduplicated')})]")
            if reply.get("deduplicated") is not True:
                failures.append(
                    "truncated submit retry did not deduplicate "
                    f"server-side: {reply}")

            # The injected os._exit fires at the second recorded trial;
            # wait for the server process to die mid-job.
            rc = proc.wait(timeout=args.timeout)
            print(f"[server killed mid-job with exit code {rc}]")
            if rc != KILL_EXIT_CODE:
                failures.append(
                    f"expected injected kill exit {KILL_EXIT_CODE}, "
                    f"got {rc}")

            # Restart on the same data dir (a fresh port: the old one can
            # linger while the kernel reaps the killed process's sockets):
            # the once-only faults are spent (token files), the open job
            # resumes and finishes.
            port2 = free_port()
            second = start_serve(port2, data_dir, env, serve_args)
            client = ServiceClient(f"http://127.0.0.1:{port2}")
            wait_for_health(client, second)
            deadline = time.monotonic() + args.timeout
            final = None
            for progress in client.tail(reply["job_id"], wait=10.0):
                print(f"  {progress['state']:<9} "
                      f"{progress['completed']}/{progress['total']}")
                final = progress
                if time.monotonic() > deadline:
                    failures.append("tail timed out after restart")
                    break

            jobs = client.jobs(limit=100)
            if len(jobs) != 1:
                failures.append(
                    f"expected exactly one job after the retried submit, "
                    f"got {len(jobs)}")

            spec, reference = serial_reference(args.seed)
            check_results(client, spec, reference, final, failures)
        finally:
            stop_serve(proc)
            if second is not None:
                stop_serve(second)

    if failures:
        print("\nCHAOS SMOKE FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nchaos smoke OK: truncated submit deduplicated, mid-job kill "
          "resumed to done, rows bit-identical to the serial path")
    return 0


def run_workers(args, env) -> int:
    """The fig12 smoke sweep executed by a two-daemon remote fleet under
    the ``worker-chaos`` transport plan, with the lease holder SIGKILLed
    mid-job.

    Proves the partition-tolerance story end to end, across real
    processes: the killed worker's lease is reaped by the (stood-down)
    local thread, the surviving daemon re-leases the job with a larger
    fencing token, the server-side cache sweep spares every trial the
    victim already uploaded, and the run-table ends bit-identical to
    ``SerialBackend`` with exactly one row per trial — despite dropped
    polls, delayed requests, a duplicated upload, a truncated upload
    response, dropped heartbeats, and one dead worker.
    """
    port = free_port()
    failures = []
    with tempfile.TemporaryDirectory() as data_dir:
        url = f"http://127.0.0.1:{port}"
        proc = start_serve(port, data_dir, env,
                           ("--lease", "5", "--workers", "1"))
        workers = {}
        try:
            client = ServiceClient(url)
            wait_for_health(client, proc)
            workers = {wid: start_work(url, wid, data_dir, env)
                       for wid in ("fleet-a", "fleet-b")}

            # Both daemons registered before the job exists, so the
            # server's local thread stands down to reaper duty.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                seen = {w["worker_id"] for w in client.workers()}
                if seen >= set(workers):
                    break
                time.sleep(0.2)
            else:
                failures.append(f"fleet never registered: {seen}")

            reply = client.submit_builder("fig12", scale="smoke",
                                          seed=args.seed)
            print(f"[submitted {reply['name']} as {reply['job_id']} "
                  f"({reply['trials']} trials) to a 2-worker fleet]")

            # SIGKILL whichever daemon uploads the first row — by
            # construction the current lease holder, caught mid-job.
            victim = None
            deadline = time.monotonic() + args.timeout
            while time.monotonic() < deadline:
                rows = client.runs(experiment=reply["name"], limit=5)["runs"]
                holders = [r["worker_id"] for r in rows if r["worker_id"]]
                if holders:
                    victim = holders[0]
                    break
                time.sleep(0.2)
            if victim is None:
                failures.append("no worker ever uploaded a row")
            else:
                workers[victim].kill()
                workers[victim].wait(timeout=15)
                print(f"[SIGKILLed lease holder {victim} mid-job]")

            final = None
            deadline = time.monotonic() + args.timeout
            for progress in client.tail(reply["job_id"], wait=10.0):
                print(f"  {progress['state']:<9} "
                      f"{progress['completed']}/{progress['total']} "
                      f"(attempt {progress.get('attempt')})")
                final = progress
                if time.monotonic() > deadline:
                    failures.append("tail timed out")
                    break

            spec, reference = serial_reference(args.seed)
            check_results(client, spec, reference, final, failures)

            rows = client.runs(experiment=spec.name,
                               limit=len(spec.trials) + 10)["runs"]
            # Local threads stamp their rows too (worker-0, ...): any
            # writer outside the fleet means local execution ran.
            contributed = {r["worker_id"] for r in rows}
            strangers = contributed - set(workers)
            if strangers:
                failures.append(
                    f"local execution ran trials while the fleet was live: "
                    f"{sorted(map(str, strangers))}"
                )
            if victim is not None and len(contributed & set(workers)) < 2:
                failures.append(
                    f"expected both workers in the run-table, "
                    f"got {sorted(map(str, contributed))}"
                )
            if final is not None and final.get("attempt", 0) < 2:
                failures.append(
                    f"job finished on attempt {final.get('attempt')} — "
                    f"the kill did not interrupt a lease")
        finally:
            for w in workers.values():
                if w.poll() is None:
                    stop_serve(w)
            stop_serve(proc)

    if failures:
        print("\nWORKER FLEET SMOKE FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nworker fleet smoke OK: killed lease holder reaped, survivor "
          "finished from cache under transport chaos, rows bit-identical "
          "to the serial path with zero duplicates")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="testbed seed")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall tail timeout in seconds")
    parser.add_argument("--chaos", action="store_true",
                        help="run under the smoke-chaos fault plan and "
                             "verify the recovery story")
    parser.add_argument("--workers", action="store_true",
                        help="run the sweep on a two-daemon remote fleet "
                             "under worker-chaos and SIGKILL the lease "
                             "holder mid-job")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")

    if args.chaos:
        return run_chaos(args, env)
    if args.workers:
        return run_workers(args, env)
    return run_smoke(args, env)


if __name__ == "__main__":
    sys.exit(main())
