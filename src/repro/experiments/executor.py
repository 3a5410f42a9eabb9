"""Generic experiment executor: materialize TrialSpecs through a backend.

``run_experiment(spec, testbed)`` is the single entry point every figure
runner goes through. It materializes each :class:`~repro.experiments.spec.
TrialSpec` into a :class:`~repro.network.Network` run, collects
:class:`~repro.experiments.spec.TrialResult`s, and applies the spec's pure
reduction. Backends plug in how trials execute:

* :class:`SerialBackend` — in-process, in spec order. Bit-identical to the
  pre-spec hand-rolled runners (every RNG stream is a stateless function of
  (testbed seed, run seed), so execution order cannot perturb results).
* :class:`ProcessPoolBackend` — an ordered map over worker processes.
  Trials share nothing but the read-only testbed (shipped once per
  worker), so the output is deterministic. It is not a failure domain: a
  failing trial or a dead worker ends the run.

:class:`ResultStore` adds JSON-lines persistence: completed trials are
appended under (trial_id, fingerprint) and skipped on resume, so
``run_experiment`` flushes on any failure and ``--resume`` continues.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.offline_map import preload_offline_map
from repro.errors import SimulatedCrash, TrialHungError, is_transient
from repro.experiments.spec import ExperimentSpec, TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.network import Network, RunResult


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
#: metric name -> fn(net, result, spec) -> JSON-serializable value.
#: Metrics run inside the executing worker, right after the simulation,
#: because they need live MAC/medium state that never leaves the process.
METRICS: Dict[str, Callable[[Network, RunResult, TrialSpec], Any]] = {}


def register_metric(name: str):
    def deco(fn):
        METRICS[name] = fn
        return fn

    return deco


@register_metric("concurrency")
def _metric_concurrency(net: Network, result: RunResult, spec: TrialSpec) -> float:
    """Fraction of measured time with >= 2 senders on the air (needs
    ``track_tx``)."""
    return result.concurrency_fraction(spec.senders)


@register_metric("ht_rates")
def _metric_ht_rates(net: Network, result: RunResult, spec: TrialSpec) -> List[float]:
    """Per-receiver P(header or trailer) for each measured CMAP flow."""
    rates = []
    for s, r in spec.measured_flows:
        smac = net.nodes[s].mac
        rmac = net.nodes[r].mac
        sent = smac.cstats.vpkts_sent_to.get(r, 0)
        if sent > 0:
            rates.append(rmac.header_or_trailer_rate(s, sent))
    return rates


@register_metric("fanout")
def _metric_fanout(net: Network, result: RunResult, spec: TrialSpec) -> Dict[str, float]:
    """Mean fan-out table sizes vs the exhaustive N-1 (culling diagnostics)."""
    census = net.medium.fanout_census()
    attached = len(net.medium.attached_ids())
    if not census:
        return {"tables": 0, "attached": attached,
                "mean_delivered": 0.0, "mean_interference_only": 0.0}
    delivered = [d for d, _ in census.values()]
    noise_only = [i for _, i in census.values()]
    n = len(census)
    return {
        "tables": n,
        "attached": attached,
        "mean_delivered": sum(delivered) / n,
        "mean_interference_only": sum(noise_only) / n,
    }


@register_metric("ht_stats")
def _metric_ht_stats(net: Network, result: RunResult, spec: TrialSpec) -> List[List[float]]:
    """Per-flow [P(header), P(header or trailer)] pairs (Fig. 16)."""
    out = []
    for s, r in spec.measured_flows:
        smac = net.nodes[s].mac
        rmac = net.nodes[r].mac
        sent = smac.cstats.vpkts_sent_to.get(r, 0)
        if sent > 0:
            out.append([rmac.header_rate(s, sent),
                        rmac.header_or_trailer_rate(s, sent)])
    return out


# ----------------------------------------------------------------------
# Trial materialization
# ----------------------------------------------------------------------
def _join_node(net: Network, node: int, factory, flows, payload_bytes: int) -> None:
    """Churn join: (re)instantiate a node mid-run with its flows."""
    if node in net.nodes:
        return  # already present (overlapping schedules compose as no-ops)
    net.add_node(node, factory)
    for s, d in flows:
        net.add_saturated_flow(s, d, payload_bytes=payload_bytes)


def _leave_node(net: Network, node: int) -> None:
    """Churn leave: stop and detach a node mid-run."""
    if node in net.nodes:
        net.remove_node(node)


def _watchdog_check(sim, deadline, check_dt, trial_id, timeout_s) -> None:
    """The trial watchdog's engine event (see :func:`run_trial`): raise
    once the wall-clock budget is spent, else check again in ``check_dt``.
    A module function, not a closure naming itself, so it forms no cycle."""
    if time.monotonic() >= deadline:
        raise TrialHungError(
            f"trial {trial_id!r} exceeded its {timeout_s}s "
            f"wall-clock budget at sim time {sim.now:.6f}"
        )
    sim.schedule_call(
        check_dt, _watchdog_check, (sim, deadline, check_dt, trial_id, timeout_s)
    )


#: ``TrialSpec.preload`` -> whether the preloaded offline map is frozen.
_PRELOADS = {"offline": True, "warm_start": False}


def run_trial(
    testbed: Testbed,
    spec: TrialSpec,
    timeout_s: Optional[float] = None,
    fault_hook=None,
) -> TrialResult:
    """Assemble, run, and measure one trial. Pure in (testbed, spec).

    Dynamic-world extensions: ``spec.churn`` events are scheduled before the
    run (a node whose first event is "join" starts absent and brings its
    flows along when it enters); ``spec.mobility`` builds the registered
    model over the testbed floor and plays it through a
    :class:`~repro.net.mobility.MobilityController`. ``spec.preload``
    installs the offline conflict map after the nodes and before the flows.
    All are deterministic functions of (testbed, spec), so backends stay
    interchangeable.

    ``timeout_s`` arms a cooperative wall-clock watchdog: a self-
    rescheduling engine event checks elapsed wall time every 1/64th of the
    trial's simulated duration and raises
    :class:`~repro.errors.TrialHungError` once the budget is spent — a
    hung trial becomes a quarantinable failure instead of a wedged worker.
    The check events mutate no simulation state (RNG streams are stateless
    functions of the seeds, and the callback only reads the wall clock),
    so results stay bit-identical with the watchdog armed; when
    ``timeout_s`` is None the engine's hot loop is untouched.

    ``fault_hook`` (see ``repro.service.faults``) fires site ``trial.run``
    keyed by the trial id before the run — the injection point for
    scripted per-trial raise/hang/kill faults.

    The network is closed (:meth:`~repro.network.Network.close`) once the
    metrics are read, and when the trial raises, so refcounting frees the
    trial's world on the spot instead of leaving it to the cyclic GC.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    if fault_hook is not None:
        fault_hook("trial.run", spec.trial_id)
    net = Network(
        testbed,
        run_seed=spec.run_seed,
        track_tx=spec.track_tx,
        delivery_floor_dbm=spec.delivery_floor_dbm,
        interference_floor_dbm=spec.interference_floor_dbm,
    )
    try:
        factory = spec.mac.build()
        first_op: Dict[int, str] = {}
        for t, op, node in sorted(spec.churn, key=lambda e: e[0]):
            if op not in ("join", "leave"):
                raise ValueError(f"unknown churn op {op!r} (want 'join'/'leave')")
            first_op.setdefault(node, op)
        initially_absent = {n for n, op in first_op.items() if op == "join"}
        for node in spec.nodes:
            if node not in initially_absent:
                net.add_node(node, factory)
        if spec.preload is not None:
            if spec.preload not in _PRELOADS:
                raise ValueError(
                    f"unknown preload {spec.preload!r}; pick from {sorted(_PRELOADS)}"
                )
            preload_offline_map(net, spec.flows, freeze=_PRELOADS[spec.preload])
        for s, d in spec.flows:
            if s not in initially_absent:
                net.add_saturated_flow(s, d, payload_bytes=spec.payload_bytes)
        for t, op, node in spec.churn:
            if op == "join":
                flows = tuple(f for f in spec.flows if f[0] == node)
                net.sim.schedule_call(
                    t, _join_node, (net, node, factory, flows, spec.payload_bytes)
                )
            else:
                net.sim.schedule_call(t, _leave_node, (net, node))
        if spec.mobility is not None:
            from repro.net.mobility import MobilityController

            controller = MobilityController(net)
            model = spec.mobility.build(testbed.config.floor)
            for node in spec.mobility.nodes:
                controller.attach(node, model)
            controller.start()
        if deadline is not None:
            check_dt = max(spec.duration / 64.0, 1e-6)
            net.sim.schedule_call(
                check_dt,
                _watchdog_check,
                (net.sim, deadline, check_dt, spec.trial_id, timeout_s),
            )
        result = net.run(duration=spec.duration, warmup=spec.warmup)
        flow_mbps = {f: result.flow_mbps(*f) for f in spec.measured_flows}
        metrics = {}
        for name in spec.metrics:
            if name not in METRICS:
                raise KeyError(f"unknown metric {name!r}; registered: "
                               f"{sorted(METRICS)}")
            metrics[name] = METRICS[name](net, result, spec)
    finally:
        net.close()
    return TrialResult(spec.trial_id, flow_mbps, metrics, spec.fingerprint())


def run_with_retries(
    run: Callable[..., TrialResult],
    testbed: Testbed,
    trial: TrialSpec,
    *,
    max_retries: int,
    backoff_base_s: float,
    backoff_cap_s: float,
    sleep: Callable[[float], None],
    budget: Optional[Dict[str, int]] = None,
    timeout_s: Optional[float] = None,
    fault_hook=None,
) -> Tuple[Optional[TrialResult], Optional[float], Optional[BaseException]]:
    """Run one trial through ``run`` (a ``run_trial``), retrying
    *transient* failures with capped exponential backoff while the
    per-trial cap ``max_retries`` and the shared ``budget`` (a
    ``{"left": n}`` every trial of one job draws from; None = unbounded)
    allow. Permanent failures return at once — the simulation is
    deterministic, so they would only reproduce. ``timeout_s`` and
    ``fault_hook`` reach ``run`` only when set, so two-argument fakes
    keep working. Returns (result | None, wall_seconds | None,
    exception | None)."""
    kwargs: Dict[str, Any] = {}
    if timeout_s is not None:
        kwargs["timeout_s"] = timeout_s
    if fault_hook is not None:
        kwargs["fault_hook"] = fault_hook
    attempt = 0
    while True:
        try:
            t0 = time.perf_counter()
            result = run(testbed, trial, **kwargs)
            return result, time.perf_counter() - t0, None
        except SimulatedCrash:
            raise  # fault injection: behave like a dead process
        except Exception as exc:
            if not is_transient(exc) or attempt >= max_retries:
                return None, None, exc
            if budget is not None:
                if budget["left"] <= 0:
                    return None, None, exc
                budget["left"] -= 1
            attempt += 1
            sleep(min(backoff_cap_s, backoff_base_s * (2 ** (attempt - 1))))


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class SerialBackend:
    """Run trials one after another in the calling process.

    Backend protocol: ``run(testbed, trials, on_result=None)`` returns the
    results in ``trials`` order; ``on_result`` is invoked with each result
    as soon as it exists, which is what lets the executor persist
    completed trials while the rest of a figure is still running. A
    failing trial raises.
    """

    def run(self, testbed: Testbed, trials: Sequence[TrialSpec],
            on_result=None) -> List[TrialResult]:
        results = []
        for t in trials:
            res = run_trial(testbed, t)
            if on_result is not None:
                on_result(res)
            results.append(res)
        return results


_WORKER_TESTBED: Optional[Testbed] = None


def _pool_init(testbed: Testbed) -> None:
    global _WORKER_TESTBED
    _die_with_parent()
    _WORKER_TESTBED = testbed


def _die_with_parent() -> None:
    """Confine this worker to its parent's fault domain.

    Forked workers inherit the parent's Python signal handlers, which must
    not run in a worker (a handler that swallows SIGTERM would make the
    worker unkillable by ``terminate()``). SIGTERM goes back to SIG_DFL;
    SIGINT to SIG_IGN so a terminal Ctrl-C stops the sweep via the parent
    instead of snapping workers mid-trial into a BrokenProcessPool.

    Then ask the kernel to SIGTERM the worker if its parent dies (Linux
    ``PR_SET_PDEATHSIG``; silently a no-op elsewhere). Without it, a
    parent killed outright (OOM, ``kill -9``) orphans its workers: forked
    children hold the write end of their own call queue — so they block
    on ``get()`` forever instead of seeing EOF — plus every other
    inherited fd."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):  # non-Linux / no prctl
        pass


def _pool_run(spec: TrialSpec) -> TrialResult:
    assert _WORKER_TESTBED is not None, "worker pool not initialized"
    return run_trial(_WORKER_TESTBED, spec)


class ProcessPoolBackend:
    """Map trials over ``jobs`` worker processes, in input order.

    The testbed is shipped to each worker once (pool initializer); trial
    specs stream over the pipe per task. Results arrive (and ``on_result``
    fires) in input order, and every trial is a pure function of (testbed,
    spec), so results are bit-identical to :class:`SerialBackend`.

    A trial's exception, or a dead worker's ``BrokenProcessPool``,
    propagates; ``run_experiment`` has stored every result before it.
    Resilience to crashed or hung trials is the sweep service's job
    (DESIGN.md "Failure domains").
    """

    def __init__(self, jobs: int):
        self.jobs = jobs

    def run(self, testbed: Testbed, trials: Sequence[TrialSpec],
            on_result=None) -> List[TrialResult]:
        trials = list(trials)
        if not trials or self.jobs <= 1:
            return SerialBackend().run(testbed, trials, on_result=on_result)
        results = []
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(trials)),
            initializer=_pool_init,
            initargs=(testbed,),
        ) as executor:
            for res in executor.map(_pool_run, trials):
                if on_result is not None:
                    on_result(res)
                results.append(res)
        return results


def make_backend(jobs: Optional[int]) -> "SerialBackend | ProcessPoolBackend":
    """``jobs`` <= 1 (or None) -> serial; otherwise an N-process pool."""
    if jobs is None or jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
class ResultStore:
    """JSON-lines persistence of trial results, keyed by (trial_id,
    fingerprint).

    A store is bound to one testbed seed; resuming against a different
    testbed raises rather than silently mixing incompatible results.

    On disk: line 1 is a header ``{"testbed_seed", "experiment"}``, every
    further line one ``TrialResult.to_json()``; loading is last-line-wins
    per ``trial_id``, so replayed and duplicated lines are harmless.
    :meth:`save` appends what :meth:`put` added since the last save and
    fsyncs — O(1) in the size of the store — and rewrites the whole file
    atomically (temp file + rename) only when it has to: no file yet, a
    file in the older single-object format, a changed header, or a
    previous save that failed. DESIGN.md "Persistence / resume" has the
    protocol step by step.

    ``experiment`` names the sweep the results belong to and is persisted
    in the header — it is what lets a corrupted run-table be rebuilt from
    the flat stores alone (``RunTable.rebuild_from_stores``), without the
    jobs table that died with it. ``fault_hook`` fires site ``store.save``
    (keyed by path) at the top of every save, before anything touches
    disk — an injected ``OSError`` there behaves exactly like a failed
    write: the previous on-disk contents stay intact.
    """

    def __init__(
        self,
        path: str,
        testbed_seed: Optional[int] = None,
        experiment: Optional[str] = None,
        fault_hook=None,
    ):
        self.path = path
        self.testbed_seed = testbed_seed
        self.experiment = experiment
        self.fault_hook = fault_hook
        self._results: Dict[str, TrialResult] = {}
        #: Results put since the last successful save.
        self._unsaved: List[TrialResult] = []
        #: The header line the file is known to start with; None when the
        #: next save must rewrite instead of append.
        self._disk_header: Optional[dict] = None
        if os.path.exists(path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as f:
            *lines, tail = f.read().split(b"\n")
        # ``tail`` is whatever follows the last newline. Files in the
        # older format are one JSON object with no newline at all; any
        # other unterminated tail is an append that never returned, so
        # nobody was told it is durable: drop it.
        if tail and not lines:
            try:
                if "trials" in json.loads(tail):
                    lines = [tail]
            except ValueError:
                pass
        # A terminated line that does not parse is a corrupt store.
        header, *entries = [json.loads(line) for line in lines] or [{}]
        stored_seed = header.get("testbed_seed")
        if (self.testbed_seed is not None and stored_seed is not None
                and stored_seed != self.testbed_seed):
            raise ValueError(
                f"result store {self.path} was produced with testbed seed "
                f"{stored_seed}, not {self.testbed_seed}"
            )
        if stored_seed is not None:
            self.testbed_seed = stored_seed
        if header.get("experiment") is not None:
            self.experiment = header["experiment"]
        for entry in header.get("trials", []) + entries:
            res = TrialResult.from_json(entry)
            self._results[res.trial_id] = res
        if lines and not tail and "trials" not in header:
            self._disk_header = header

    def get(self, spec: TrialSpec) -> Optional[TrialResult]:
        cached = self._results.get(spec.trial_id)
        if cached is not None and cached.fingerprint == spec.fingerprint():
            return cached
        return None

    def put(self, result: TrialResult) -> None:
        self._results[result.trial_id] = result
        self._unsaved.append(result)

    def has(self, trial_id: str, fingerprint: str) -> bool:
        """Whether a result with exactly this (trial_id, fingerprint) is
        cached — the idempotency check remote result uploads go through."""
        cached = self._results.get(trial_id)
        return cached is not None and cached.fingerprint == fingerprint

    def __len__(self) -> int:
        return len(self._results)

    def results(self) -> List[TrialResult]:
        """All cached results, in insertion order."""
        return list(self._results.values())

    def save(self) -> None:
        """Make every result put so far durable. When this returns they
        are on disk and fsynced; when it raises, the results saved before
        are still readable — the coordinator's crash-resume path reads
        this file, so a damaged store would silently re-run or, worse,
        half-resume a sweep."""
        if self.fault_hook is not None:
            self.fault_hook("store.save", self.path)
        header = {"testbed_seed": self.testbed_seed,
                  "experiment": self.experiment}
        appendable = self._disk_header == header
        # Until this save returns the file is suspect: a failure below
        # makes the next save a rewrite, which repairs a torn line.
        self._disk_header = None
        if appendable:
            self._append()
        else:
            self._rewrite(header)
        self._disk_header = header
        self._unsaved.clear()

    def _append(self) -> None:
        """One ``write`` of one whole line per unsaved result, on a fd
        opened by path for this save only: a rewrite-by-rename from
        another ResultStore on the same path can then never leave this one
        appending to an unlinked file, and ``O_APPEND`` keeps two
        appenders' lines apart."""
        if not self._unsaved:
            return
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            for result in self._unsaved:
                line = (json.dumps(result.to_json()) + "\n").encode()
                if os.write(fd, line) != len(line):
                    raise OSError(f"short append to {self.path}")
            os.fsync(fd)
        finally:
            os.close(fd)

    def _rewrite(self, header: dict) -> None:
        """Replace the file atomically: a mid-rewrite crash (including
        power loss, hence the fsyncs of file and directory) leaves either
        the previous contents or the new ones."""
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(header) + "\n")
                for result in self._results.values():
                    f.write(json.dumps(result.to_json()) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_experiment(
    spec: ExperimentSpec,
    testbed: Testbed,
    backend: Optional[object] = None,
    store: Optional[ResultStore] = None,
) -> Any:
    """Execute ``spec``'s trials through ``backend`` and reduce the results.

    With a ``store``, trials whose (id, fingerprint) already exist are
    skipped and their cached results reused; fresh results are persisted
    one by one as they complete, so an interrupted run resumes from the
    last finished trial rather than the last finished figure.
    """
    backend = backend or SerialBackend()
    if store is not None:
        # Bind the store to the testbed actually being executed against —
        # cached trial results are meaningless under any other testbed.
        actual_seed = getattr(testbed, "seed", None)
        if store.testbed_seed is None:
            store.testbed_seed = actual_seed
        elif actual_seed is not None and store.testbed_seed != actual_seed:
            raise ValueError(
                f"result store {store.path} holds trials for testbed seed "
                f"{store.testbed_seed}, but this run uses seed {actual_seed}"
            )
    cached: Dict[str, TrialResult] = {}
    pending: List[TrialSpec] = []
    for trial in spec.trials:
        hit = store.get(trial) if store is not None else None
        if hit is not None:
            cached[trial.trial_id] = hit
        else:
            pending.append(trial)
    on_result = None
    if store is not None:
        def on_result(res: TrialResult) -> None:
            store.put(res)
            store.save()
    try:
        fresh = backend.run(testbed, pending, on_result=on_result) if pending else []
    except BaseException:
        # A worker failure (or interrupt) mid-sweep must not lose the trials
        # that already completed: flush whatever reached the store before
        # letting the error propagate. Backends that call ``on_result`` per
        # trial have already persisted those results; this covers backends
        # (or monkeypatched stand-ins) that only ``put`` into the store, and
        # makes the guarantee independent of backend cooperation.
        if store is not None:
            store.save()
        raise
    by_id = dict(cached)
    by_id.update({r.trial_id: r for r in fresh})
    ordered = [by_id[t.trial_id] for t in spec.trials]
    return spec.reduce(ordered)
