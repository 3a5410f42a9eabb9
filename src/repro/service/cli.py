"""Service CLI targets: ``serve`` / ``work`` / ``submit`` / ``tail`` /
``runs`` / ``chaos``.

Dispatched from ``python -m repro.cli``::

    python -m repro.cli serve --port 8642 --data-dir sweep-data
    python -m repro.cli work --url http://127.0.0.1:8642
    python -m repro.cli submit --url http://127.0.0.1:8642 \\
        --builder fig12 --scale smoke --seed 1
    python -m repro.cli submit --url ... --builder fig20 --param rates=[6,12]
    python -m repro.cli tail --url ... <job-id>
    python -m repro.cli runs --url ... --experiment fig12 \\
        --metric total_mbps --q 10,50,90
    python -m repro.cli runs --url ... --prune --max-age 604800 --keep 100000
    python -m repro.cli chaos --builder fig12 --scale smoke

``serve`` owns the data directory (sqlite run-table + per-job stores),
resumes any jobs a previous process left open, and drains gracefully on
SIGTERM/SIGINT: workers finish their current trial, jobs requeue durably,
and the run-table is checkpointed before exit. ``work`` runs a remote
worker daemon against a serve URL: it leases jobs over HTTP, executes
them locally, and streams fenced, idempotent uploads back — the trial
loop ``serve``'s in-process workers run too. Start one per core or host
for a fleet, the service's unit of parallelism (see EXPERIMENTS.md
"Remote workers"). ``chaos`` runs a deterministic fault-injection soak
in-process and exits non-zero if the stack mishandled any injected
fault. Everything else talks to a running server over HTTP.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
from typing import List, Optional

DEFAULT_URL = "http://127.0.0.1:8642"


def _parse_param(raw: str):
    """``key=value`` with the value parsed as JSON when possible (so
    ``--param rates=[6,12]`` and ``--param include_win1=false`` work), else
    kept as a string."""
    if "=" not in raw:
        raise SystemExit(f"--param wants key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _load_fault_plan(spec: Optional[str], state_dir: Optional[str]):
    """The ``--fault-plan`` value as a plan (None when unset). A plan that
    does not load (an unknown site, action or name) exits with one line."""
    from repro.service.faults import describe, load_plan

    if not spec:
        return None
    try:
        plan = load_plan(spec, state_dir=state_dir)
    except ValueError as exc:
        raise SystemExit(f"--fault-plan {spec}: {exc}")
    print(f"[fault plan: {describe(plan)}]", flush=True)
    return plan


def cmd_serve(args) -> int:
    import signal

    from repro.service.coordinator import Coordinator
    from repro.service.http_api import make_server

    fault_plan = _load_fault_plan(
        args.fault_plan, os.path.join(args.data_dir, "faults")
    )
    coordinator = Coordinator(
        args.data_dir,
        trial_timeout_s=args.trial_timeout,
        fault_plan=fault_plan,
        lease_s=args.lease,
        worker_ttl_s=args.worker_ttl,
    )
    if coordinator.runtable.rebuilt_from:
        print(f"[run-table failed its integrity check; quarantined to "
              f"{coordinator.runtable.rebuilt_from} and rebuilt from the "
              f"flat stores]", flush=True)
    if args.resume:
        resumed = coordinator.resume_open_jobs()
        if resumed:
            print(f"[resumed {len(resumed)} open job(s): {', '.join(resumed)}]")
    coordinator.start(workers=args.workers)
    server = make_server(coordinator, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"[sweep service on http://{host}:{port} — data in {args.data_dir}; "
          f"{args.workers} in-process worker(s)]", flush=True)

    draining = threading.Event()

    def _graceful(signum, frame) -> None:
        # Runs on the main thread, inside serve_forever's poll loop —
        # shutdown() must be called from another thread (it blocks until
        # the loop exits, which can't happen under our feet here).
        if draining.is_set():
            return  # second signal while draining: stay on the clean path
        draining.set()
        name = signal.Signals(signum).name
        print(f"\n[{name}: draining — workers stop at the trial boundary, "
              f"open jobs requeue for the next serve]", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _graceful)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        coordinator.stop()
        coordinator.runtable.close()
    print("[stopped: state persisted; restart with the same --data-dir "
          "to resume]", flush=True)
    return 0


def cmd_work(args) -> int:
    """Remote worker daemon: lease jobs from a ``serve`` URL, run them
    locally, upload results. Drains gracefully on SIGTERM/SIGINT (the
    current job is requeued at the next trial boundary)."""
    import signal

    from repro.service.http_api import ApiError, ServiceClient
    from repro.service.worker import Worker, default_worker_id

    fault_plan = _load_fault_plan(args.fault_plan, args.fault_state)
    worker_id = args.worker_id or default_worker_id()
    # Worker.run closes the client's connections when the daemon exits.
    worker = Worker(
        ServiceClient(args.url),
        worker_id=worker_id,
        poll_s=args.poll,
        fault_plan=fault_plan,
    )

    def _graceful(signum, frame) -> None:
        print(f"\n[{signal.Signals(signum).name}: draining — current job "
              f"requeues at the next trial boundary]", flush=True)
        worker.stop()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _graceful)

    print(f"[worker {worker_id} leasing from {args.url}]", flush=True)
    try:
        taken = worker.run(max_jobs=args.max_jobs,
                           idle_exit_s=args.idle_exit)
    except ApiError as exc:
        raise SystemExit(f"HTTP {exc.status}: {exc}")
    except OSError as exc:
        print(f"[worker {worker_id} giving up: {exc}]", flush=True)
        return 1
    s = worker.stats
    print(f"[worker {worker_id} exiting: {taken} job(s) — "
          f"acked={s['acked']} abandoned={s['abandoned']} "
          f"trials={s['trials']} uploaded={s['uploaded']} "
          f"quarantined={s['quarantined']}]", flush=True)
    return 0


def cmd_chaos(args) -> int:
    """Deterministic chaos soak, fully in-process: run a sweep under
    :func:`~repro.service.faults.build_soak_plan` (a trial that hangs
    forever, an injected store-write failure, a sqlite busy burst, one
    coordinator crash mid-job), restarting the coordinator after each
    crash, then verify the wreckage: exactly one run-table row per trial,
    the hung trial quarantined, the job ``done_partial``, and every
    surviving trial bit-identical to a fault-free SerialBackend run."""
    import tempfile

    from repro.errors import SimulatedCrash
    from repro.experiments.executor import SerialBackend
    from repro.experiments.runners import SWEEP_BUILDERS, ExperimentScale
    from repro.experiments.scenarios import ScenarioError
    from repro.net.testbed import Testbed
    from repro.service.coordinator import Coordinator
    from repro.service.faults import build_soak_plan, describe
    from repro.service.runtable import row_fingerprint

    builder = SWEEP_BUILDERS.get(args.builder)
    if builder is None:
        raise SystemExit(f"unknown builder {args.builder!r}; registered: "
                         f"{sorted(SWEEP_BUILDERS)}")
    scale = ExperimentScale.preset(args.scale)
    testbed = Testbed(seed=args.seed)
    try:
        spec = builder(testbed, scale=scale, seed=args.seed)
    except ScenarioError as exc:
        raise SystemExit(f"builder {args.builder!r} found no scenario: {exc}")
    data_dir = args.data_dir or tempfile.mkdtemp(prefix="repro-chaos-")

    print(f"[chaos: {spec.name} x{len(spec.trials)} trials, data in "
          f"{data_dir}]", flush=True)
    reference = {}
    for res in SerialBackend().run(testbed, list(spec.trials)):
        reference[res.trial_id] = res.to_json()

    plan = build_soak_plan(
        [t.trial_id for t in spec.trials],
        seed=args.fault_seed,
        state_dir=os.path.join(data_dir, "faults"),
        hang_s=args.hang_s,
    )
    victim = plan.rules[0].key
    print(f"[fault plan: {describe(plan)}; hang victim: {victim}]",
          flush=True)

    job_id = None
    restarts = 0
    co = None
    while True:
        co = Coordinator(
            data_dir,
            trial_timeout_s=args.trial_timeout,
            fault_plan=plan,
            backoff_base_s=0.01,
            testbed_factory=lambda seed: testbed,
        )
        co.resume_open_jobs()
        if job_id is None:
            job_id = co.submit_experiment(spec, testbed_seed=args.seed)
        try:
            while co.run_once() is not None:
                pass
            break
        except SimulatedCrash:
            restarts += 1
            print(f"[coordinator crash #{restarts} (injected); "
                  f"restarting]", flush=True)
            co.runtable.close()
            if restarts > args.max_restarts:
                print("FAIL: crash fault kept firing past "
                      f"--max-restarts={args.max_restarts}")
                return 1

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    job = co.runtable.get_job(job_id)
    total = len(spec.trials)
    check(restarts >= 1, f"injected coordinator crash fired ({restarts}x)")
    check(job is not None and job.state == "done_partial",
          f"job finished done_partial (got "
          f"{'missing' if job is None else job.state})")
    check(job is not None and job.quarantined == 1
          and job.completed == total - 1,
          f"counters completed={total - 1} quarantined=1 (got "
          f"{'-' if job is None else (job.completed, job.quarantined)})")

    rows = co.runtable.recent_runs(limit=100_000, experiment=spec.name)
    ids = [r["trial_id"] for r in rows]
    check(len(ids) == len(set(ids)) == total,
          f"exactly one row per trial ({len(ids)} rows, "
          f"{len(set(ids))} distinct, want {total})")
    victim_fp = next(t for t in spec.trials if t.trial_id == victim).fingerprint()
    check(co.runtable.trial_status(
              spec.name, victim, row_fingerprint(victim_fp, args.seed),
          ) == "quarantined",
          "hung trial quarantined")

    survivors = co.runtable.results(spec.name)
    mismatched = [
        res.trial_id for res in survivors
        if res.to_json() != reference.get(res.trial_id)
    ]
    check(len(survivors) == total - 1 and not mismatched,
          f"{len(survivors)}/{total - 1} survivors bit-identical to the "
          f"fault-free serial run"
          + (f" (mismatched: {mismatched})" if mismatched else ""))

    co.runtable.close()
    print("[chaos " + ("PASS]" if not failures else
                       f"FAIL: {len(failures)} check(s)]"), flush=True)
    return 0 if not failures else 1


def _print_progress(progress: dict) -> None:
    print(
        f"  {progress['job_id']}  {progress['name']:<12} "
        f"{progress['state']:<9} {progress['completed']}/{progress['total']}"
        + (f"  error={progress['error']}" if progress.get("error") else ""),
        flush=True,
    )


def _tail(client, job_id: str) -> int:
    final = None
    for progress in client.tail(job_id):
        _print_progress(progress)
        final = progress
    return 0 if final and final["state"] == "done" else 1


@contextlib.contextmanager
def _client(url: str):
    """A :class:`ServiceClient` whose failures end the command with one
    line and exit status 1: the server's error reply, or why the server
    could not be reached."""
    from repro.service.http_api import ApiError, ServiceClient

    try:
        with ServiceClient(url) as client:
            yield client
    except ApiError as exc:
        raise SystemExit(f"HTTP {exc.status}: {exc}")
    except BrokenPipeError:
        raise  # stdout was closed (``cli runs | head``): not the server
    except OSError as exc:
        raise SystemExit(f"cannot reach {url}: {exc}")


def cmd_submit(args) -> int:
    wire = None
    if args.spec_json:
        with open(args.spec_json) as f:
            wire = json.load(f)
    with _client(args.url) as client:
        if wire is not None:
            reply = client.submit_experiment(wire, testbed_seed=args.seed,
                                             priority=args.priority)
        else:
            params = dict(_parse_param(p) for p in args.param)
            reply = client.submit_builder(
                args.builder, scale=args.scale, seed=args.seed,
                priority=args.priority, params=params,
            )
        if args.porcelain:
            print(reply["job_id"])
        else:
            print(f"[submitted {reply['name']} as job {reply['job_id']} "
                  f"({reply['trials']} trials)]")
        if args.tail:
            return _tail(client, reply["job_id"])
    return 0


def cmd_tail(args) -> int:
    with _client(args.url) as client:
        return _tail(client, args.job_id)


def cmd_runs(args) -> int:
    with _client(args.url) as client:
        return _runs(client, args)


def _runs(client, args) -> int:
    if args.prune:
        if args.max_age is None and args.keep is None:
            raise SystemExit("--prune needs --max-age and/or --keep")
        reply = client.prune_runs(max_age_s=args.max_age,
                                  max_keep=args.keep)
        print(f"[pruned {reply['deleted']} run-table row(s); "
              f"WAL checkpointed]")
        return 0
    if args.metric:
        if not args.experiment:
            raise SystemExit("--metric needs --experiment")
        qs = [float(q) for q in args.q.split(",") if q]
        reply = client.summary(args.experiment, args.metric, qs)
        print(f"{args.experiment} · {args.metric} "
              f"({reply['count']} trials)")
        for q, v in sorted(reply["percentiles"].items(), key=lambda k: float(k[0])):
            print(f"  p{float(q):<5g} {v:.4f}")
        return 0
    reply = client.runs(experiment=args.experiment, limit=args.limit,
                        status=args.status)
    counts = reply["counts"]
    print("run-table: " + (", ".join(f"{k}={v}" for k, v in counts.items())
                           or "(empty)"))
    for row in reply["runs"]:
        wall = f"{row['wall_time']:.2f}s" if row["wall_time"] else "-"
        print(f"  {row['experiment']:<12} {row['trial_id']:<32} "
              f"{row['status']:<7} {wall:>8}  fp={row['fingerprint']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro service", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the sweep service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--data-dir", default="sweep-data",
                       help="run-table + per-job stores (default sweep-data)")
    serve.add_argument("--workers", type=int, default=1,
                       help="in-process workers = concurrent jobs (default 1)")
    serve.add_argument("--no-resume", dest="resume", action="store_false",
                       help="do not re-queue jobs left open by a crash")
    serve.add_argument("--trial-timeout", type=float, default=None,
                       metavar="S",
                       help="per-trial wall-clock watchdog in seconds "
                            "(default: none)")
    serve.add_argument("--lease", type=float, default=300.0, metavar="S",
                       help="job lease length; a worker silent this long "
                            "is reaped and its job re-leased (default 300)")
    serve.add_argument("--worker-ttl", type=float, default=15.0, metavar="S",
                       help="remote workers silent this long count as "
                            "gone and local execution resumes (default 15)")
    serve.add_argument("--fault-plan", default=None, metavar="NAME|PATH",
                       help="inject faults: a canned plan name "
                            "(smoke-chaos, none) or a FaultPlan JSON file")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(fn=cmd_serve)

    work = sub.add_parser(
        "work", help="remote worker daemon: lease + run jobs over HTTP")
    work.add_argument("--url", default=DEFAULT_URL,
                      help=f"serve URL to lease from (default {DEFAULT_URL})")
    work.add_argument("--worker-id", default=None,
                      help="stable identity in leases and run-table rows "
                           "(default: host-pid-suffix)")
    work.add_argument("--poll", type=float, default=1.0, metavar="S",
                      help="lease long-poll length when idle (default 1)")
    work.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after taking N jobs (default: run forever)")
    work.add_argument("--idle-exit", type=float, default=None, metavar="S",
                      help="exit after S seconds with nothing to lease "
                           "(default: keep polling)")
    work.add_argument("--fault-plan", default=None, metavar="NAME|PATH",
                      help="worker-side transport faults: a canned name "
                           "(worker-chaos, none) or a FaultPlan JSON file")
    work.add_argument("--fault-state", default=None, metavar="DIR",
                      help="state dir for the plan's exactly-once tokens")
    work.set_defaults(fn=cmd_work)

    chaos = sub.add_parser(
        "chaos", help="deterministic fault-injection soak (in-process)")
    chaos.add_argument("--builder", default="fig12",
                       help="registered sweep builder (default fig12)")
    chaos.add_argument("--scale", default="smoke",
                       help="smoke | quick | paper (default smoke)")
    chaos.add_argument("--seed", type=int, default=1,
                       help="seed of the testbed and of the configurations "
                            "drawn on it (default 1)")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="derives the hang victim (default 0)")
    chaos.add_argument("--data-dir", default=None,
                       help="default: a fresh temp dir")
    chaos.add_argument("--trial-timeout", type=float, default=1.0,
                       metavar="S",
                       help="watchdog budget; must be < --hang-s "
                            "(default 1.0)")
    chaos.add_argument("--hang-s", type=float, default=2.5,
                       help="how long the victim trial hangs (default 2.5)")
    chaos.add_argument("--max-restarts", type=int, default=5,
                       help="give up after this many injected crashes")
    chaos.set_defaults(fn=cmd_chaos)

    submit = sub.add_parser("submit", help="submit a sweep over HTTP")
    submit.add_argument("--url", default=DEFAULT_URL)
    submit.add_argument("--builder", default="fig12",
                        help="registered sweep builder (default fig12)")
    submit.add_argument("--scale", default="smoke",
                        help="smoke | quick | paper (default smoke)")
    submit.add_argument("--seed", type=int, default=1,
                        help="seed of the testbed and, with --builder, of "
                             "the configurations drawn on it (default 1)")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (default 0)")
    submit.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="builder kwarg, JSON-parsed (repeatable)")
    submit.add_argument("--spec-json", metavar="PATH",
                        help="submit a wire-format ExperimentSpec file "
                             "instead of a named builder")
    submit.add_argument("--tail", action="store_true",
                        help="follow the job to completion after submitting")
    submit.add_argument("--porcelain", action="store_true",
                        help="print only the job id (for scripts)")
    submit.set_defaults(fn=cmd_submit)

    tail = sub.add_parser("tail", help="follow a job's progress")
    tail.add_argument("job_id")
    tail.add_argument("--url", default=DEFAULT_URL)
    tail.set_defaults(fn=cmd_tail)

    runs = sub.add_parser("runs", help="query the run-table")
    runs.add_argument("--url", default=DEFAULT_URL)
    runs.add_argument("--experiment", help="filter to one experiment")
    runs.add_argument("--status", help="filter by row status (ok/quarantined)")
    runs.add_argument("--limit", type=int, default=20)
    runs.add_argument("--metric",
                      help="summarize this metric (total_mbps, mbps:S-D, "
                           "or a named trial metric) instead of listing rows")
    runs.add_argument("--q", default="10,50,90",
                      help="with --metric: percentiles (default 10,50,90)")
    runs.add_argument("--prune", action="store_true",
                      help="retention: delete old rows (never open jobs') "
                           "and checkpoint the WAL")
    runs.add_argument("--max-age", type=float, default=None, metavar="S",
                      help="with --prune: drop rows older than S seconds")
    runs.add_argument("--keep", type=int, default=None, metavar="N",
                      help="with --prune: keep only the newest N rows")
    runs.set_defaults(fn=cmd_runs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
