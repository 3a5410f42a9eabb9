"""HTTP API + client for the sweep service (stdlib only).

Server: a :class:`ThreadingHTTPServer` over a :class:`Coordinator`.

===============================  =========================================
``GET  /healthz``                liveness + queue depth
``POST /jobs``                   submit a sweep (wire spec or named builder)
``GET  /jobs``                   newest-first job listing
``GET  /jobs/<id>``              progress; ``?wait=S&cursor=N`` long-polls
``POST /jobs/<id>/cancel``       cancel (within one trial, on either path)
``GET  /runs``                   recent run-table rows + per-experiment counts
``GET  /runs/summary``           percentiles/summary of a metric
``POST /runs/prune``             retention: drop old rows, checkpoint WAL
``GET  /workers``                remote worker registry snapshot
``POST /workers/register``       remote worker handshake
``POST /workers/lease``          lease one job + fencing token to a worker
``POST /workers/heartbeat``      extend a remote lease
``POST /workers/upload``         idempotent, fenced TrialResult upload
``POST /workers/quarantine``     worker gave up on one trial
``POST /workers/ack``            job finished; server computes final state
``POST /workers/requeue``        graceful give-back (worker draining)
===============================  =========================================

The worker verbs (see ``repro.service.worker``) carry ``worker_id`` and
the lease's **fencing token** in every body; a stale lease maps to HTTP
409 with ``code`` ``lease_lost`` or ``stale_token`` — the reply that
tells a zombie worker to back away. :func:`worker_verb` answers them, for
the HTTP handler and for :class:`LocalClient`, the in-process transport
the coordinator's own threads use.

Submit bodies (JSON)::

    {"builder": "fig12", "scale": "smoke", "seed": 1,
     "params": {...}, "priority": 0}

resolves a name in :data:`repro.experiments.runners.SWEEP_BUILDERS`
against the server's (cached) testbed, while ::

    {"experiment": {"name": ..., "trials": [...]},
     "testbed_seed": 1, "priority": 0}

carries a full wire-format ExperimentSpec (see ``TrialSpec.to_wire``) —
the round trip is fingerprint-identical, so results are bit-identical to
running the same spec in-process and land in the same resume caches.

Client: :class:`ServiceClient` wraps the endpoints over ``http.client``,
one kept-alive connection per calling thread, each request a send phase
and a :class:`Reply` read later or at once — the CLI's
``submit``/``tail``/``runs``/``work`` targets and the CI smoke check drive
the service exclusively through it.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import socketserver
import threading
import time
import urllib.error
import urllib.parse
import uuid
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import StaleTokenError
from repro.experiments.runners import SWEEP_BUILDERS, ExperimentScale
from repro.experiments.scenarios import ScenarioError
from repro.experiments.spec import TrialResult, experiment_from_wire
from repro.service.coordinator import Coordinator
from repro.service.jobs import TERMINAL_STATES, SweepJob, new_job
from repro.service.queue import LeaseLost

#: Cap on ?wait= so a stalled client cannot pin a server thread forever.
MAX_LONG_POLL_S = 60.0

#: Largest request body accepted (413 beyond this). Generous for wire
#: sweeps — a trial spec is ~200 bytes, so this clears ~40k trials — but
#: finite, so a hostile Content-Length cannot make a handler allocate
#: unbounded memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-connection socket timeout: a client that stops sending mid-request
#: (or never sends one) frees its handler thread after this, instead of
#: pinning it forever.
SOCKET_TIMEOUT_S = 65.0


class ApiError(Exception):
    """Maps to an HTTP error status.

    ``code`` is the machine-readable error tag the server attaches to
    lease-protocol conflicts (``lease_lost``, ``stale_token``): the worker
    keys its back-away decision on it instead of parsing message text."""

    def __init__(self, status: int, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.code = code


def _query_num(query: Dict[str, str], key: str, default, parse):
    """Parse a numeric query param, mapping garbage to a 400 (not a 500)."""
    raw = query.get(key)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ApiError(
            400, f"query param {key}={raw!r} is not a valid {parse.__name__}"
        )


def worker_verb(co: Coordinator, verb: str, body: dict) -> dict:
    """Answer one ``POST /workers/<verb>``: parse ``body``, call the
    coordinator's lease verb, build the reply — including the back-away
    signal, a 409 :class:`ApiError` for :class:`LeaseLost` /
    :class:`~repro.errors.StaleTokenError`. Upload and quarantine replies
    carry the job's ``verdict`` (see ``Coordinator.verdict``)."""
    with _back_away():
        return _worker_verb(co, verb, body)


@contextlib.contextmanager
def _back_away() -> Iterator[None]:
    try:
        yield
    except LeaseLost as exc:
        raise ApiError(409, str(exc), code="lease_lost") from exc
    except StaleTokenError as exc:
        raise ApiError(409, str(exc), code="stale_token") from exc


def _worker_verb(co: Coordinator, verb: str, body: dict) -> dict:
    worker_id = body.get("worker_id")
    if not isinstance(worker_id, str) or not worker_id:
        raise ApiError(400, "body needs a non-empty 'worker_id'")

    if verb == "register":
        return co.register_worker(worker_id)

    if verb == "lease":
        timeout = min(float(body.get("timeout", 0.0) or 0.0), MAX_LONG_POLL_S)
        return _lease_reply(co.lease_for_remote(worker_id, timeout=timeout))

    # Every verb below acts on an existing lease: job_id + token.
    job_id = body.get("job_id")
    token = body.get("token")
    if not isinstance(job_id, str) or not job_id:
        raise ApiError(400, "body needs a non-empty 'job_id'")
    if not isinstance(token, int):
        raise ApiError(400, "body needs an integer fencing 'token'")

    if verb == "heartbeat":
        co.remote_heartbeat(job_id, worker_id, token)
        return {"ok": True}
    if verb == "upload":
        try:
            result = TrialResult.from_json(body["result"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(400, f"bad wire TrialResult: {exc}")
        wall = body.get("wall")
        recorded = co.record_remote_result(
            job_id, worker_id, token, result,
            wall=None if wall is None else float(wall),
        )
        return {"recorded": recorded, "verdict": co.verdict(job_id)}
    if verb == "quarantine":
        try:
            trial_id = str(body["trial_id"])
            fingerprint = str(body["fingerprint"])
            error = str(body["error"])
            error_class_name = str(body.get("error_class", "RuntimeError"))
        except KeyError as exc:
            raise ApiError(400, f"quarantine body missing {exc}")
        co.record_remote_quarantine(
            job_id, worker_id, token, trial_id, fingerprint,
            error, error_class_name,
        )
        return {"ok": True, "verdict": co.verdict(job_id)}
    if verb == "ack":
        return co.remote_ack(job_id, worker_id, token)
    if verb == "requeue":
        co.remote_requeue(job_id, worker_id, token)
        return {"ok": True}
    raise ApiError(404, f"no worker verb {verb!r}")


def _lease_reply(leased: Optional[dict]) -> dict:
    if leased is None:
        return {"job": None}
    return {
        "job": leased["job"].header(),
        "token": leased["token"],
        "pending": [t.to_wire() for t in leased["pending"]],
    }


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    #: StreamRequestHandler applies this to the connection socket: a hung
    #: or half-dead client raises timeout instead of pinning the thread.
    timeout = SOCKET_TIMEOUT_S
    #: ``_send`` writes headers and body as two ``send``s. On a kept-alive
    #: connection Nagle would hold the body until the client ACKs the
    #: headers, and the client's delayed ACK makes that ~40 ms per reply.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, fmt, *args) -> None:
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        self._body_read = False
        url = urllib.parse.urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in urllib.parse.parse_qs(url.query).items()}
        try:
            payload = self._route(method, parts, query)
        except ApiError as exc:
            reply = {"error": str(exc)}
            if exc.code is not None:
                reply["code"] = exc.code
            self._send(exc.status, reply)
        except TimeoutError:
            # The connection socket timed out mid-read: the client went
            # away or stalled. Drop the connection; there is nobody to
            # answer, and trying to would just raise again.
            self.close_connection = True
        except Exception as exc:  # defensive: a handler bug is a 500, not EOF
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send(200 if method == "GET" else 201, payload)

    def _route(self, method: str, parts: List[str], query: Dict[str, str]) -> dict:
        co = self.server.coordinator
        if method == "GET" and parts == ["healthz"]:
            return {"ok": True, "queued": co.queue.queued_count()}
        if parts[:1] == ["jobs"]:
            return self._route_jobs(method, parts, query, co)
        if parts[:1] == ["runs"]:
            return self._route_runs(method, parts, query, co)
        if parts[:1] == ["workers"] and method == "GET" and len(parts) == 1:
            return {"workers": co.remote_workers()}
        if parts[:1] == ["workers"] and method == "POST" and len(parts) == 2:
            return worker_verb(co, parts[1], self._read_body())
        raise ApiError(404, f"no route {method} /{'/'.join(parts)}")

    def _route_jobs(self, method, parts, query, co: Coordinator) -> dict:
        if method == "GET" and len(parts) == 1:
            return {"jobs": co.list_jobs(limit=_query_num(query, "limit", 50, int))}
        if method == "POST" and len(parts) == 1:
            return self._submit(co)
        if method == "GET" and len(parts) == 2:
            wait = min(_query_num(query, "wait", 0.0, float), MAX_LONG_POLL_S)
            cursor = _query_num(query, "cursor", None, int)
            progress = co.wait(
                parts[1],
                cursor=cursor if wait > 0 else None,
                timeout=wait if wait > 0 else None,
            )
            if progress is None:
                raise ApiError(404, f"unknown job {parts[1]!r}")
            return progress
        if method == "POST" and len(parts) == 3 and parts[2] == "cancel":
            job_id = parts[1]
            accepted = co.cancel(job_id)
            progress = co.job_progress(job_id)
            if progress is None:
                raise ApiError(404, f"unknown job {job_id!r}")
            return {"cancelled": accepted, "state": progress["state"]}
        raise ApiError(404, f"no route {method} /{'/'.join(parts)}")

    def _route_runs(self, method, parts, query, co: Coordinator) -> dict:
        if method == "POST" and parts[1:] == ["prune"]:
            body = self._read_body()
            max_age_s = body.get("max_age_s")
            max_keep = body.get("max_keep")
            try:
                deleted = co.runtable.prune(
                    max_age_s=None if max_age_s is None else float(max_age_s),
                    max_keep=None if max_keep is None else int(max_keep),
                )
            except (TypeError, ValueError) as exc:
                raise ApiError(400, f"bad prune bounds: {exc}")
            return {"deleted": deleted}
        if method != "GET":
            raise ApiError(405, "run-table endpoints are read-only "
                                "(except POST /runs/prune)")
        table = co.runtable
        experiment = query.get("experiment")
        if len(parts) == 1:
            return {
                "runs": table.recent_runs(
                    limit=_query_num(query, "limit", 20, int),
                    experiment=experiment,
                    status=query.get("status"),
                    with_payload=query.get("payload") == "1",
                ),
                "counts": table.counts_by_experiment(),
            }
        if parts[1] == "summary":
            if not experiment or "metric" not in query:
                raise ApiError(400, "summary needs ?experiment= and ?metric=")
            metric = query["metric"]
            raw_qs = query.get("q", "10,50,90")
            try:
                qs = [float(q) for q in raw_qs.split(",") if q]
            except ValueError:
                raise ApiError(400, f"query param q={raw_qs!r} is not a "
                                    f"comma-separated list of percentiles")
            return {
                "experiment": experiment,
                "metric": metric,
                "count": len(table.metric_values(experiment, metric)),
                "percentiles": {
                    str(q): v
                    for q, v in table.percentiles(experiment, metric, qs).items()
                },
                "summary": table.summary(experiment, metric),
            }
        raise ApiError(404, f"no route GET /{'/'.join(parts)}")

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def _read_body(self) -> dict:
        """Read and parse the JSON request body, bounded by
        :data:`MAX_BODY_BYTES` (413 beyond — before reading a byte of an
        oversized payload, so the allocation never happens)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ApiError(400, "bad Content-Length header")
        if length < 0:
            # rfile.read(-1) would block until EOF/socket timeout, pinning
            # this handler thread for a malicious or broken client.
            raise ApiError(400, "bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"bad JSON body: {exc}")
        if not isinstance(body, dict):
            raise ApiError(400, "JSON body must be an object")
        return body

    # ------------------------------------------------------------------
    def _submit(self, co: Coordinator) -> dict:
        body = self._read_body()
        try:
            priority = int(body.get("priority", 0))
            seed = int(body.get("seed", body.get("testbed_seed", 1)))
        except (TypeError, ValueError) as exc:
            raise ApiError(400, f"bad priority/seed: {exc}")
        if "builder" in body:
            name = body["builder"]
            builder = SWEEP_BUILDERS.get(name)
            if builder is None:
                raise ApiError(
                    400,
                    f"unknown builder {name!r}; registered: "
                    f"{sorted(SWEEP_BUILDERS)}",
                )
            try:
                scale = ExperimentScale.preset(body.get("scale", "smoke"))
            except KeyError as exc:
                raise ApiError(400, str(exc.args[0]))
            params = body.get("params", {})
            try:
                spec = builder(co.testbed(seed), scale=scale, seed=seed, **params)
            except (TypeError, KeyError, ValueError) as exc:
                raise ApiError(400, f"builder {name!r} rejected params: {exc}")
            except ScenarioError as exc:
                # This testbed holds no scenario the builder's constraints
                # accept: the request's seed is at fault, not the server.
                raise ApiError(400, f"builder {name!r} found no scenario: {exc}")
        elif "experiment" in body:
            try:
                spec = experiment_from_wire(body["experiment"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ApiError(400, f"bad wire experiment: {exc}")
        else:
            raise ApiError(400, "body needs 'builder' or 'experiment'")
        idem_key = body.get("idempotency_key")
        if idem_key is not None and (
            not isinstance(idem_key, str) or not idem_key
            or len(idem_key) > 128
        ):
            raise ApiError(400, "idempotency_key must be a short string")
        job = new_job(spec.name, list(spec.trials), priority=priority,
                      testbed_seed=seed, idempotency_key=idem_key)
        granted = co.submit(job)
        if granted != job.job_id:
            # A previous submit with the same key already created the job
            # (this request is a client retry whose first response was
            # lost) — hand the original back instead of a duplicate.
            return {"job_id": granted, "name": job.name,
                    "trials": job.total, "deduplicated": True}
        return {"job_id": job.job_id, "name": job.name,
                "trials": job.total, "deduplicated": False}

    # ------------------------------------------------------------------
    def _send(self, status: int, payload: dict) -> None:
        if not self._body_read and self.headers.get("Content-Length", "0") != "0":
            # Answering before ``_read_body`` (unknown route, 405, 413)
            # leaves the request body in the socket, where the next
            # request on a kept-alive connection would be parsed out of it
            # — close instead.
            self.close_connection = True
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Long-polls pin threads; don't let a burst of them refuse new sockets.
    request_queue_size = 32

    def __init__(self, addr, coordinator: Coordinator, verbose: bool = False):
        self.coordinator = coordinator
        self.verbose = verbose
        super().__init__(addr, _Handler)


def make_server(
    coordinator: Coordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (port 0 = ephemeral; see ``server.server_address``) but do not
    serve — call ``serve_forever()`` or :func:`serve_in_thread`."""
    return ServiceHTTPServer((host, port), coordinator, verbose=verbose)


def serve_in_thread(server: socketserver.BaseServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


# ======================================================================
# Client
# ======================================================================
_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}
_JSON_HEADERS = {"Content-Type": "application/json"}


class ServiceClient:
    """Thin ``http.client`` client for the endpoints above.

    ``base_url`` like ``http://127.0.0.1:8642`` (``https://`` is accepted
    too). Raises :class:`ApiError` with the server's message on any
    non-2xx response. ``http_proxy`` / ``https_proxy`` are *not* honoured:
    the client always connects to ``base_url`` directly.

    Each calling thread keeps one HTTP/1.1 connection open across requests
    (no TCP handshake and no new server thread per verb); :meth:`close` —
    or leaving the ``with`` block — closes them all, and a thread that is
    done with the client closes its own with :meth:`disconnect`. When the
    server has closed a kept connection in the meantime (idle timeout,
    restart) the request is resent once on a fresh one, outside the retry
    budget below. That can only happen to an idempotent request: a
    non-idempotent one (``lease_job``, ``cancel``) always opens a fresh
    connection, because resending it could act twice.

    Transport failures (connection refused/reset, timeouts, truncated
    responses) retry up to ``retries`` times with jittered exponential
    backoff — but only for *idempotent* requests: GETs always are, and
    submits are made so by a client-minted ``idempotency_key`` that the
    coordinator deduplicates on, which is what makes "retry a submit
    whose response was lost" safe. :class:`ApiError` (the server answered
    with an error) never retries. ``retry_seed`` pins the jitter and
    ``sleep`` is injectable, so retry tests are deterministic and instant;
    ``fault_hook`` fires site ``client.request`` per attempt (actions
    ``drop`` — fail before the bytes leave — and ``truncate`` — the
    server processes the request but the response is lost).

    Every verb is a send phase and a :class:`Reply`; ``send_upload`` and
    ``send_quarantine`` return it, so a worker reads it a trial later.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.2,
        retry_seed: Optional[int] = None,
        fault_hook: Optional[Callable[..., Any]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in _CONNECTION_CLASSES or not url.hostname:
            raise ValueError(f"base_url {base_url!r} is not an http(s) URL")
        self._connection_class = _CONNECTION_CLASSES[url.scheme]
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.fault_hook = fault_hook
        self._sleep = sleep
        self._rng = random.Random(retry_seed)
        self._local = threading.local()
        #: Every live thread's connection, for close(). Weak, so a thread
        #: that ended takes its (disconnected) connection with it.
        self._connections: "weakref.WeakSet" = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every thread's connection. The client stays usable: the
        next request, from any thread, reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def disconnect(self) -> None:
        """Close the calling thread's connection (a thread about to exit
        calls this; its connection is not reachable afterwards)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit_builder(
        self,
        builder: str,
        scale: str = "smoke",
        seed: int = 1,
        priority: int = 0,
        params: Optional[Dict[str, Any]] = None,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        return self._request("POST", "/jobs", {
            "builder": builder, "scale": scale, "seed": seed,
            "priority": priority, "params": params or {},
            "idempotency_key": idempotency_key or uuid.uuid4().hex,
        }, idempotent=True)

    def submit_experiment(
        self,
        wire: dict,
        testbed_seed: int = 1,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        return self._request("POST", "/jobs", {
            "experiment": wire, "testbed_seed": testbed_seed,
            "priority": priority,
            "idempotency_key": idempotency_key or uuid.uuid4().hex,
        }, idempotent=True)

    def jobs(self, limit: int = 50) -> List[dict]:
        return self._request("GET", f"/jobs?limit={limit}")["jobs"]

    def job(
        self,
        job_id: str,
        wait: Optional[float] = None,
        cursor: Optional[int] = None,
    ) -> dict:
        query = {}
        if wait is not None:
            query["wait"] = wait
        if cursor is not None:
            query["cursor"] = cursor
        suffix = f"?{urllib.parse.urlencode(query)}" if query else ""
        return self._request(
            "GET", f"/jobs/{job_id}{suffix}",
            timeout=self.timeout + (wait or 0),
        )

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel", {})

    def tail(self, job_id: str, wait: float = 10.0) -> Iterator[dict]:
        """Long-poll a job to completion, yielding each progress change.
        The final yield is the terminal progress dict."""
        cursor = -1
        while True:
            progress = self.job(job_id, wait=wait, cursor=max(cursor, 0))
            yield progress
            if progress["state"] in TERMINAL_STATES:
                return
            cursor = progress["completed"] + progress.get("quarantined", 0)

    def runs(
        self,
        experiment: Optional[str] = None,
        limit: int = 20,
        status: Optional[str] = None,
        with_payload: bool = False,
    ) -> dict:
        query = {"limit": limit}
        if experiment:
            query["experiment"] = experiment
        if status:
            query["status"] = status
        if with_payload:
            query["payload"] = 1
        return self._request("GET", f"/runs?{urllib.parse.urlencode(query)}")

    # ------------------------------------------------------------------
    # Worker verbs (used by repro.service.worker; retry policy per verb:
    # register/heartbeat/upload/requeue are server-side idempotent — the
    # registry upserts, extend re-extends, upload dedups by fingerprint
    # under the fencing token, requeue's replay just raises 409 — so the
    # transport may retry them. A lease retry could grant a second job,
    # so the worker polls again instead.)
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str) -> dict:
        return self._request("POST", "/workers/register",
                             {"worker_id": worker_id}, idempotent=True)

    def workers(self) -> List[dict]:
        return self._request("GET", "/workers")["workers"]

    def lease_job(self, worker_id: str, timeout: float = 0.0) -> dict:
        return self._request(
            "POST", "/workers/lease",
            {"worker_id": worker_id, "timeout": timeout},
            timeout=self.timeout + timeout,
        )

    def heartbeat(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._request(
            "POST", "/workers/heartbeat",
            {"job_id": job_id, "worker_id": worker_id, "token": token},
            idempotent=True,
        )

    def upload_result(self, *args, **kwargs) -> dict:
        """``send_upload`` and its reply."""
        return self.send_upload(*args, **kwargs).result()

    def send_upload(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        result_wire: dict,
        wall: Optional[float] = None,
    ) -> "Reply":
        """``upload_result``'s send phase (the worker reads the reply one
        trial later)."""
        return self._send(
            "POST", "/workers/upload",
            {"job_id": job_id, "worker_id": worker_id, "token": token,
             "result": result_wire, "wall": wall},
            idempotent=True,
        )

    def quarantine_trial(self, *args, **kwargs) -> dict:
        """``send_quarantine`` and its reply."""
        return self.send_quarantine(*args, **kwargs).result()

    def send_quarantine(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        trial_id: str,
        fingerprint: str,
        error: str,
        error_class_name: str,
    ) -> "Reply":
        """``quarantine_trial``'s send phase."""
        return self._send(
            "POST", "/workers/quarantine",
            {"job_id": job_id, "worker_id": worker_id, "token": token,
             "trial_id": trial_id, "fingerprint": fingerprint,
             "error": error, "error_class": error_class_name},
            idempotent=True,
        )

    def ack_job(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._request(
            "POST", "/workers/ack",
            {"job_id": job_id, "worker_id": worker_id, "token": token},
            idempotent=True,
        )

    def requeue_job(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._request(
            "POST", "/workers/requeue",
            {"job_id": job_id, "worker_id": worker_id, "token": token},
            idempotent=True,
        )

    def prune_runs(
        self,
        max_age_s: Optional[float] = None,
        max_keep: Optional[int] = None,
    ) -> dict:
        return self._request(
            "POST", "/runs/prune",
            {"max_age_s": max_age_s, "max_keep": max_keep},
            idempotent=True,
        )

    def summary(
        self,
        experiment: str,
        metric: str,
        qs: Sequence[float] = (10, 50, 90),
    ) -> dict:
        query = urllib.parse.urlencode({
            "experiment": experiment, "metric": metric,
            "q": ",".join(str(q) for q in qs),
        })
        return self._request("GET", f"/runs/summary?{query}")

    # ------------------------------------------------------------------
    def _request(self, *args, **kwargs) -> dict:
        """A request sent and its reply read at once."""
        return self._send(*args, **kwargs).result()

    def _send(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
        idempotent: Optional[bool] = None,
    ) -> "Reply":
        """A request's send phase: its reply is read by ``result()``."""
        if idempotent is None:
            idempotent = method == "GET"
        data = None if body is None else json.dumps(body).encode("utf-8")
        return Reply(self, method, path, data, timeout or self.timeout, idempotent)

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's kept-alive connection."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(self._host, self._port)
            self._local.conn = conn
            with self._connections_lock:
                self._connections.add(conn)
        return conn


class Reply:
    """A request on the wire whose reply has not been read yet.

    It went out on the sending thread's kept connection: call
    :meth:`result` on that thread, before its next request. A send never
    sleeps or raises a transport error; a failed send is kept, and every
    recovery happens in :meth:`result`. A kept connection the server had
    closed meanwhile (idle timeout, restart) is replayed once on a fresh
    one; any other transport failure of an idempotent request is resent
    with the client's retry policy.
    """

    def __init__(self, client: ServiceClient, method, path, data, timeout, idempotent):
        self._client = client
        self._path = path
        self._args = (method, client._prefix + path, data, timeout)
        self._idempotent = idempotent
        self._send()

    def _send(self) -> None:
        client = self._client
        self._conn = conn = client._connection()
        if not self._idempotent:
            # Resending could act twice (a second lease), so never gamble
            # on a kept socket the server may have closed.
            conn.close()
        self._reused = conn.sock is not None
        self._error: Optional[OSError] = None
        self._rule = None
        try:
            if client.fault_hook is not None:
                self._rule = client.fault_hook("client.request", self._path)
            if self._rule is not None and self._rule.action == "drop":
                raise urllib.error.URLError("injected: request dropped before send")
            _write(conn, *self._args)
        except OSError as exc:
            self._error = exc

    def _receive(self) -> Tuple[int, str, bytes]:
        try:
            if self._error is not None:
                raise self._error
            return _read(self._conn)
        except ConnectionError:
            if not self._reused:
                raise
        # The server closed the kept connection: say it again on a fresh
        # one. Not a retry of the budget — nothing was wrong with the
        # network — and only idempotent requests reuse a connection.
        _write(self._conn, *self._args)
        return _read(self._conn)

    def result(self) -> dict:
        """Read the reply; raises :class:`ApiError` on a non-2xx status."""
        client = self._client
        attempts = client.retries + 1 if self._idempotent else 1
        for attempt in range(attempts):
            try:
                if attempt:
                    self._send()
                status, reason, raw = self._receive()
                if not 200 <= status < 300:
                    # The server answered: not a transport failure, no retry.
                    code = None
                    try:
                        payload = json.loads(raw.decode("utf-8"))
                        message = payload.get("error", "")
                        code = payload.get("code")
                    except Exception:
                        message = reason
                    raise ApiError(status, message or f"HTTP {status}", code=code)
                payload = json.loads(raw.decode("utf-8"))
                if self._rule is not None and self._rule.action == "truncate":
                    # The server handled the request; the response is lost
                    # on the wire — the retry must deduplicate server-side.
                    raise urllib.error.URLError("injected: response truncated")
                return payload
            except (OSError, json.JSONDecodeError):
                # Refused/reset connections, socket timeouts, a reply cut
                # short, truncated JSON — the request may or may not have
                # been processed.
                if attempt == attempts - 1:
                    raise
                client._sleep(
                    client.backoff_s * (2**attempt) * (0.5 + 0.5 * client._rng.random())
                )
        raise AssertionError("unreachable")  # pragma: no cover


def _write(conn: http.client.HTTPConnection, method, url, data, timeout) -> None:
    # Per-request timeout (long-polls outlast the default): used by
    # connect() on a fresh socket, set directly on a kept one.
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    with _closed_on_error(conn):
        conn.request(method, url, body=data, headers=_JSON_HEADERS)


def _read(conn: http.client.HTTPConnection) -> Tuple[int, str, bytes]:
    with _closed_on_error(conn):
        resp = conn.getresponse()
        return resp.status, resp.reason, resp.read()


@contextlib.contextmanager
def _closed_on_error(conn: http.client.HTTPConnection) -> Iterator[None]:
    """A half-sent request or half-read reply leaves a socket that cannot
    carry another request: close it, and the next request reconnects."""
    try:
        yield
    except BaseException as exc:
        conn.close()
        if isinstance(exc, http.client.HTTPException) and not isinstance(exc, OSError):
            # IncompleteRead, BadStatusLine: a reply cut short or garbled
            # is a transport failure like a reset, and callers tell those
            # by OSError.
            raise OSError(f"malformed reply: {exc!r}") from exc
        raise


class LocalClient:
    """The in-process transport of the coordinator's own threads: the
    fleet verbs of :class:`ServiceClient`, their request bodies built by
    the same code, answered by :func:`worker_verb` on the coordinator
    directly — no HTTP, no JSON encoding. A verb runs when it is sent;
    an :class:`ApiError` waits for ``result()``, where the wire raises it.

    ``lease_job`` grants the one job the calling thread already took from
    the queue. ``register_worker`` returns the handshake config without
    joining the remote registry, whose live workers stand the local
    threads down."""

    def __init__(self, coordinator: Coordinator, job: SweepJob):
        self._co = coordinator
        self._job: Optional[SweepJob] = job

    def register_worker(self, worker_id: str) -> dict:
        return {"worker_id": worker_id, **self._co.worker_config()}

    def lease_job(self, worker_id: str, timeout: float = 0.0) -> dict:
        job, self._job = self._job, None
        if job is None:
            return {"job": None}
        with _back_away():
            return _lease_reply(self._co.grant(job, worker_id))

    heartbeat = ServiceClient.heartbeat
    send_upload = ServiceClient.send_upload
    send_quarantine = ServiceClient.send_quarantine
    ack_job = ServiceClient.ack_job
    requeue_job = ServiceClient.requeue_job
    _request = ServiceClient._request

    def _send(self, method: str, path: str, body: dict, **kwargs) -> "_Answered":
        verb = path.rsplit("/", 1)[-1]
        return _Answered(lambda: worker_verb(self._co, verb, body))

    def disconnect(self) -> None:
        pass  # no connection to close

    close = disconnect


class _Answered:
    """A reply that was ready when its request was sent."""

    def __init__(self, answer: Callable[[], dict]):
        try:
            self._reply, self._error = answer(), None
        except ApiError as exc:
            self._reply, self._error = None, exc

    def result(self) -> dict:
        if self._error is not None:
            raise self._error
        return self._reply
