"""HTTP API end-to-end: a live server + worker thread, driven only through
:class:`ServiceClient` (the same surface the CLI and CI smoke check use).

``run_trial`` is replaced with a fast scripted fake for the whole module —
these tests exercise routing, long-polling, and the submit/cancel/query
surfaces, not the simulator (the coordinator tests cover bit-identity
against real trials).
"""

import http.server
import json
import re
import socket
import threading
import time
import urllib.error

import pytest

from repro.analysis import stats
from repro.cli import main as cli_main
from repro.experiments.runners import (
    LINEUPS,
    SWEEP_BUILDERS,
    ExperimentScale,
    build_single_link_calibration,
)
from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    TrialResult,
    TrialSpec,
    experiment_to_wire,
)
from repro.net.testbed import Testbed
from repro.service.coordinator import Coordinator
from repro.service.faults import FaultPlan, FaultRule
from repro.service.http_api import ApiError, ServiceClient, make_server, serve_in_thread


def _trials(n, prefix="t"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  0, 4.0, 1.0)
        for i in range(n)
    ]


class _ScriptedRunTrial:
    """Instant fake results: trial ``p/i`` yields ``i + 1`` Mbps. Trials
    whose prefix is ``slow`` pause so cancellation can land mid-job."""

    def __call__(self, testbed, trial):
        prefix, _, index = trial.trial_id.rpartition("/")
        if prefix.startswith("slow"):
            time.sleep(0.05)
        try:
            mbps = float(index) + 1.0
        except ValueError:  # non-numeric suffix (e.g. calibration/dcf)
            mbps = 1.0
        return TrialResult(
            trial_id=trial.trial_id,
            flow_mbps={trial.flows[0]: mbps},
            fingerprint=trial.fingerprint(),
        )


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def service(tmp_path_factory, testbed):
    yield from _live_service(str(tmp_path_factory.mktemp("svc")),
                             testbed_factory=lambda seed: testbed)


@pytest.fixture(scope="module")
def seeded_service(tmp_path_factory):
    """Like ``service``, but each submit's seed builds its own testbed, as
    under ``cli serve``."""
    yield from _live_service(str(tmp_path_factory.mktemp("seeded")))


def _live_service(data_dir, testbed_factory=None):
    mp = pytest.MonkeyPatch()
    mp.setattr("repro.service.worker.run_trial", _ScriptedRunTrial())
    co = Coordinator(
        data_dir,
        sleep=lambda s: None,
        testbed_factory=testbed_factory,
    )
    co.start(workers=1)
    server = make_server(co)
    serve_in_thread(server)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    yield co, client
    client.close()
    server.shutdown()
    server.server_close()
    co.stop(timeout=5.0)
    co.runtable.close()
    mp.undo()


def _tail_to_terminal(client, job_id):
    final = None
    for progress in client.tail(job_id, wait=5.0):
        final = progress
    return final


class TestHealthAndErrors:
    def test_healthz(self, service):
        co, client = service
        reply = client.health()
        assert reply["ok"] is True
        assert "queued" in reply

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client.job("nope")
        assert err.value.status == 404
        with pytest.raises(ApiError) as err:
            client.cancel("nope")
        assert err.value.status == 404

    def test_unknown_builder_is_400_listing_the_registry(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client.submit_builder("fig99")
        assert err.value.status == 400
        assert "fig12" in str(err.value)

    def test_empty_submit_body_is_400(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client._request("POST", "/jobs", {})
        assert err.value.status == 400

    def test_malformed_numeric_query_params_are_400(self, service):
        _, client = service
        for path in (
            "/jobs?limit=abc",
            "/jobs/whatever?wait=abc",
            "/jobs/whatever?cursor=abc",
            "/runs?limit=abc",
            "/runs/summary?experiment=e&metric=m&q=a,b",
        ):
            with pytest.raises(ApiError) as err:
                client._request("GET", path)
            assert err.value.status == 400, path

    def test_unrouted_path_is_404_and_runs_is_readonly(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client._request("GET", "/frobnicate")
        assert err.value.status == 404
        with pytest.raises(ApiError) as err:
            client._request("POST", "/runs", {})
        assert err.value.status == 405


class TestSubmitAndTail:
    def test_wire_submit_runs_to_completion(self, service):
        co, client = service
        spec = ExperimentSpec("wiresweep", _trials(4, "w"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         testbed_seed=1)
        assert reply["name"] == "wiresweep" and reply["trials"] == 4
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "done"
        assert final["completed"] == 4 and final["quarantined"] == 0

        runs = client.runs(experiment="wiresweep", with_payload=True)
        assert runs["counts"]["wiresweep"] == 4
        mbps = sorted(row["payload"]["flow_mbps"][0][2]
                      for row in runs["runs"])
        assert mbps == [1.0, 2.0, 3.0, 4.0]

    def test_builder_submit_resolves_serverside(self, service, testbed):
        co, client = service
        reply = client.submit_builder("calibration", scale="smoke", seed=1)
        expected = build_single_link_calibration(
            testbed, scale=ExperimentScale.smoke())
        assert reply["trials"] == len(expected.trials)
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "done"
        # the server built the very trials the in-process builder builds
        got = {r.trial_id for r in co.runtable.results(expected.name)}
        assert got == {t.trial_id for t in expected.trials}

    def test_job_listing_includes_submitted_jobs(self, service):
        _, client = service
        reply = client.submit_experiment(
            experiment_to_wire(
                ExperimentSpec("listed", _trials(1, "l"), lambda r: r)))
        _tail_to_terminal(client, reply["job_id"])
        assert any(j["job_id"] == reply["job_id"] for j in client.jobs())

    def test_summary_percentiles_match_stats(self, service):
        _, client = service
        spec = ExperimentSpec("summed", _trials(5, "s"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        _tail_to_terminal(client, reply["job_id"])
        summary = client.summary("summed", "total_mbps", qs=(10, 50, 90))
        assert summary["count"] == 5
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        for q in (10, 50, 90):
            assert summary["percentiles"][str(float(q))] == \
                stats.percentile(values, q)


class TestRegistryContract:
    """``repro.cli <name> --seed s`` and ``POST /jobs {"builder": name,
    "seed": s}`` resolve the one registry the same way: same testbed, same
    configuration seed, so the same trials."""

    class Captured(Exception):
        """The stub backend has seen the CLI's trials; stop there."""

    @pytest.mark.parametrize("name", sorted(SWEEP_BUILDERS))
    def test_cli_builds_the_trials_submit_queues(
        self, name, seeded_service, monkeypatch
    ):
        co, client = seeded_service
        built = []

        class CapturingBackend:
            def run(backend, testbed, trials, on_result=None):
                built.extend((t.trial_id, t.fingerprint()) for t in trials)
                raise self.Captured

        monkeypatch.setattr("repro.cli.make_backend",
                            lambda jobs: CapturingBackend())
        with pytest.raises(self.Captured):
            cli_main([name, "--scale", "smoke", "--seed", "2"])

        reply = client.submit_builder(name, scale="smoke", seed=2)
        queued = co.runtable.get_job(reply["job_id"]).trials
        assert [(t.trial_id, t.fingerprint()) for t in queued] == built
        _tail_to_terminal(client, reply["job_id"])

    def test_builder_without_a_scenario_is_400(self, seeded_service):
        """Testbed 3's §5.6 regions hold no AP layout: the seed is at fault,
        so the builder's ScenarioError is a client error, not a 500."""
        _, client = seeded_service
        with pytest.raises(ApiError) as err:
            client.submit_builder("fig17", scale="smoke", seed=3)
        assert err.value.status == 400
        assert "no AP candidate" in str(err.value)

    def test_lineup_without_configurations_is_400(self, seeded_service, monkeypatch):
        _, client = seeded_service
        _, macs = LINEUPS["rate_adaptation"]
        monkeypatch.setitem(LINEUPS, "rate_adaptation", (lambda *args: [], macs))
        with pytest.raises(ApiError) as err:
            client.submit_builder("rate_adaptation", scale="smoke", seed=1)
        assert err.value.status == 400
        assert "found no scenario" in str(err.value)


class TestClientCommandErrors:
    """``submit`` / ``tail`` / ``runs`` / ``work`` end a server error, or an
    unreachable server, with one line and exit status 1."""

    @staticmethod
    def _one_line(argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @pytest.mark.parametrize("argv, prefix, needle", [
        (["submit", "--builder", "nope"], "HTTP 400: ", "nope"),
        (["submit", "--builder", "fig17", "--seed", "3"], "HTTP 400: ",
         "found no scenario"),
        (["tail", "nosuchjob"], "HTTP 404: ", "nosuchjob"),
    ], ids=["unknown_builder", "no_scenario", "unknown_job"])
    def test_server_error(self, argv, prefix, needle, seeded_service):
        _, client = seeded_service
        message = self._one_line([*argv, "--url", client.base_url])
        assert message.startswith(prefix) and needle in message

    def test_unreachable_server(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{s.getsockname()[1]}"
        message = self._one_line(["runs", "--url", url])
        assert message.startswith(f"cannot reach {url}: ")

    def test_work_against_a_server_that_is_not_the_service(self, monkeypatch):
        """``work`` too: a plain HTTP server answers the register POST
        with 501, which ends the daemon with one line."""
        monkeypatch.setattr("signal.signal", lambda sig, handler: None)
        server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), http.server.BaseHTTPRequestHandler)
        serve_in_thread(server)
        try:
            url = "http://127.0.0.1:%d" % server.server_address[1]
            message = self._one_line(["work", "--url", url, "--max-jobs", "1"])
        finally:
            server.shutdown()
            server.server_close()
        assert message.startswith("HTTP 501: ")

    def test_closed_stdout_is_not_the_server(self, seeded_service, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        _, client = seeded_service
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli_main(["runs", "--url", client.base_url])


class TestCancel:
    def test_cancel_over_http(self, service):
        _, client = service
        spec = ExperimentSpec("slowsweep", _trials(200, "slow"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        cancel = client.cancel(reply["job_id"])
        assert cancel["cancelled"] is True
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "cancelled"
        assert final["completed"] < 200


class TestLongPoll:
    def test_wait_returns_promptly_on_progress(self, service):
        _, client = service
        spec = ExperimentSpec("polled", _trials(3, "p"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        t0 = time.monotonic()
        progress = client.job(reply["job_id"], wait=30.0, cursor=0)
        elapsed = time.monotonic() - t0
        assert progress["completed"] + progress["quarantined"] > 0 \
            or progress["state"] in ("done", "failed", "cancelled")
        assert elapsed < 10.0  # long-poll released early, not at the cap
        _tail_to_terminal(client, reply["job_id"])

    def test_concurrent_pollers_all_release(self, service):
        _, client = service
        spec = ExperimentSpec("fanout", _trials(2, "f"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        finals = []

        def poll():
            try:
                finals.append(_tail_to_terminal(client, reply["job_id"]))
            finally:
                client.disconnect()  # this thread's kept connection

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(finals) == 4
        assert all(f["state"] == "done" for f in finals)


@pytest.fixture
def _faulty_client(service):
    """Factory of further clients against the live server, with injected
    faults and a recorded (instant) sleep so the retry schedule is
    observable; closed when the test ends. Called as
    ``_faulty_client(service, plan)``."""
    made = []

    def make(service, plan, retries=2):
        _, client = service
        sleeps = []
        faulty = ServiceClient(client.base_url, timeout=10.0,
                               retries=retries, retry_seed=7,
                               fault_hook=plan.fire, sleep=sleeps.append)
        made.append(faulty)
        return faulty, sleeps

    yield make
    for faulty in made:
        faulty.close()


class TestIdempotentRetries:
    def test_dropped_submit_is_retried_with_the_same_key(
        self, service, _faulty_client
    ):
        """The first submit dies before the bytes leave; the retry carries
        the same client-minted idempotency key, so exactly one job is
        created."""
        plan = FaultPlan([FaultRule(site="client.request", key="/jobs",
                                    action="drop")])
        client, sleeps = _faulty_client(service, plan)
        spec = ExperimentSpec("dropped", _trials(2, "d"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         idempotency_key="drop-key-1")
        assert reply["deduplicated"] is False  # server never saw attempt 1
        assert len(sleeps) == 1
        _tail_to_terminal(client, reply["job_id"])
        # resubmitting under the same key hands the original job back
        again = client.submit_experiment(experiment_to_wire(spec),
                                         idempotency_key="drop-key-1")
        assert again["deduplicated"] is True
        assert again["job_id"] == reply["job_id"]
        assert sum(1 for j in client.jobs(limit=1000)
                   if j["name"] == "dropped") == 1

    def test_truncated_submit_deduplicates_serverside(
        self, service, _faulty_client
    ):
        """The server processes the submit but the response is lost on the
        wire: the retry must find the job the first attempt created, not
        mint a duplicate."""
        plan = FaultPlan([FaultRule(site="client.request", key="/jobs",
                                    action="truncate")])
        client, sleeps = _faulty_client(service, plan)
        spec = ExperimentSpec("truncated", _trials(2, "x"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         idempotency_key="trunc-key-1")
        assert reply["deduplicated"] is True  # attempt 1 made the job
        assert len(sleeps) == 1
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "done" and final["completed"] == 2
        assert sum(1 for j in client.jobs(limit=1000)
                   if j["name"] == "truncated") == 1

    def test_api_errors_are_never_retried(self, service, _faulty_client):
        plan = FaultPlan([])
        client, sleeps = _faulty_client(service, plan)
        with pytest.raises(ApiError):
            client.submit_builder("fig99")
        with pytest.raises(ApiError):
            client.job("no-such-job")
        assert sleeps == []

    def test_transport_failure_exhausts_retries_then_raises(
        self, service, _faulty_client
    ):
        plan = FaultPlan([FaultRule(site="client.request", key="/healthz",
                                    action="drop", times=0)])
        client, sleeps = _faulty_client(service, plan, retries=2)
        with pytest.raises(urllib.error.URLError):
            client.health()
        assert len(sleeps) == 2  # retries, not attempts

    def test_non_idempotent_posts_are_not_retried(
        self, service, _faulty_client
    ):
        plan = FaultPlan([FaultRule(site="client.request", action="drop",
                                    times=0)])
        client, sleeps = _faulty_client(service, plan)
        with pytest.raises(urllib.error.URLError):
            client.cancel("whatever")
        assert sleeps == []

    def test_backoff_jitter_is_seed_deterministic(
        self, service, _faulty_client
    ):
        def schedule():
            plan = FaultPlan([FaultRule(site="client.request",
                                        action="drop", times=0)])
            client, sleeps = _faulty_client(service, plan, retries=3)
            with pytest.raises(urllib.error.URLError):
                client.health()
            return sleeps

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 3
        # exponential base with bounded jitter in [0.5x, 1x]
        for i, s in enumerate(first):
            base = 0.2 * (2 ** i)
            assert base * 0.5 <= s <= base


# ======================================================================
# Transport: kept-alive connections
# ======================================================================
@pytest.fixture
def counted(service):
    """A second HTTP front on the same coordinator that records every
    accepted connection: (url, list of accepted peer addresses)."""
    co, _ = service
    server = make_server(co)
    accepted = []
    real_get_request = server.get_request

    def get_request():
        conn, addr = real_get_request()
        accepted.append(addr)
        return conn, addr

    server.get_request = get_request
    serve_in_thread(server)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", accepted
    server.shutdown()
    server.server_close()


class _HangUpServer:
    """Raw TCP peer scripted per accepted connection: ``True`` answers one
    request with ``{"ok": true}`` and then hangs up (an idle close the
    client only notices on its next request); ``False`` reads the request
    and hangs up without a reply."""

    def __init__(self, script):
        self.script = list(script)
        self.accepted = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(10.0)  # a failed test must not strand accept
        self.url = "http://127.0.0.1:%d" % self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for answer in self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                conn.settimeout(5.0)
                # The whole request, so hanging up is a clean FIN, not the
                # RST that closing on unread bytes would send.
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                head, _, body = data.partition(b"\r\n\r\n")
                match = re.search(rb"content-length: *(\d+)", head.lower())
                while len(body) < (int(match.group(1)) if match else 0):
                    body += conn.recv(65536)
                if answer:
                    body = b'{"ok": true}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )
                    # Hang up only once the client has read the reply, so
                    # the close lands on an *idle* kept connection.
                    time.sleep(0.1)

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5.0)


def _raw_exchange(sock, request: bytes):
    """Send one request; return (status line, body) of one reply, or None
    on EOF."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    headers = head.decode("latin-1").split("\r\n")
    length = next(int(h.split(":", 1)[1]) for h in headers
                  if h.lower().startswith("content-length:"))
    while len(body) < length:
        body += sock.recv(65536)
    return headers[0], body


class TestKeptAliveTransport:
    def test_sequential_verbs_share_one_connection(self, counted):
        url, accepted = counted
        with ServiceClient(url, timeout=10.0) as client:
            client.health()
            client.register_worker("keep-w")
            client.jobs()
            client.workers()
            with pytest.raises(ApiError):  # an error reply keeps it too
                client.job("no-such-job")
            client.runs()
            assert len(accepted) == 1
            # ...one per calling thread, not one per client.
            other = threading.Thread(
                target=lambda: (client.health(), client.disconnect())
            )
            other.start()
            other.join(timeout=10.0)
            assert len(accepted) == 2
            client.health()
            assert len(accepted) == 2

    def test_close_closes_every_threads_connection(self, counted):
        url, accepted = counted
        client = ServiceClient(url, timeout=10.0)
        dialled, resume = threading.Event(), threading.Event()

        def other_thread():
            client.health()
            dialled.set()
            resume.wait(10.0)
            client.health()
            client.disconnect()

        other = threading.Thread(target=other_thread)
        other.start()
        assert dialled.wait(10.0)
        client.health()
        assert len(accepted) == 2
        client.close()
        # Closed is not broken: both threads' next request dials again.
        resume.set()
        other.join(timeout=10.0)
        assert not other.is_alive()
        assert client.health()["ok"] is True
        assert len(accepted) == 4
        client.close()

    def test_leftover_request_body_never_becomes_the_next_request(
        self, counted
    ):
        """A reply sent before the body was read (unknown route) must not
        leave the body where the next request is parsed from: a clean 404,
        then a clean 200 or EOF — never a 501 for a 'request' that is
        really leftover JSON."""
        url, _ = counted
        host, port = url[len("http://"):].split(":")
        body = json.dumps({"builder": "fig12", "pad": "x" * 200}).encode()
        with socket.create_connection((host, int(port)), timeout=5.0) as sock:
            first = _raw_exchange(
                sock,
                b"POST /nope HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            assert first is not None and " 404 " in first[0]
            try:
                second = _raw_exchange(
                    sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
            except ConnectionError:
                second = None  # hung up on us: as good as EOF
            if second is not None:
                assert " 200 " in second[0]
                assert json.loads(second[1])["ok"] is True

    def test_error_before_the_body_is_read_does_not_poison_the_client(
        self, counted
    ):
        """The same trap through the real client: an error answered before
        ``_read_body`` followed by further verbs on the same thread."""
        url, accepted = counted
        with ServiceClient(url, timeout=10.0) as client:
            with pytest.raises(ApiError) as err:
                client._request("POST", "/runs", {"pad": "x" * 200},
                                idempotent=True)
            assert err.value.status == 405
            assert client.health()["ok"] is True
            with pytest.raises(ApiError) as err:
                client.submit_builder("fig99")  # body read, then 400
            assert err.value.status == 400
            assert client.health()["ok"] is True
            # One reconnect (after the 405 closed the connection), no more.
            assert len(accepted) == 2

    def test_idle_close_is_invisible_to_idempotent_verbs(
        self, counted, monkeypatch
    ):
        """The server's idle timeout closes a kept connection; the next
        idempotent verb is replayed on a fresh one without touching the
        retry budget."""
        monkeypatch.setattr("repro.service.http_api._Handler.timeout", 0.2)
        url, accepted = counted
        sleeps = []
        with ServiceClient(url, timeout=10.0, retries=0,
                           sleep=sleeps.append) as client:
            assert client.health()["ok"] is True
            time.sleep(0.6)  # the handler times out and hangs up
            assert client.health()["ok"] is True
            assert client.register_worker("idle-w")["worker_id"] == "idle-w"
        assert len(accepted) == 2
        assert sleeps == []

    def test_stale_connection_replay_is_not_a_budget_retry(self):
        peer = _HangUpServer([True, True])
        sleeps = []
        try:
            with ServiceClient(peer.url, timeout=5.0, retries=0,
                               sleep=sleeps.append) as client:
                assert client.health() == {"ok": True}
                time.sleep(0.3)  # peer hung up on the idle connection
                # retries=0: only the stale-connection replay can save it
                assert client.heartbeat("j", "w", 1) == {"ok": True}
            assert peer.accepted == 2
            assert sleeps == []
        finally:
            peer.close()

    def test_lease_always_dials_fresh_and_is_never_resent(self):
        """`lease_job` is not idempotent (a resend could grant a second
        job): it never rides a kept connection that may be stale, and a
        hang-up after the request was sent is raised, not replayed."""
        peer = _HangUpServer([True, False])
        sleeps = []
        try:
            with ServiceClient(peer.url, timeout=5.0, retries=2,
                               sleep=sleeps.append) as client:
                assert client.health() == {"ok": True}
                with pytest.raises(OSError):
                    client.lease_job("w")
            assert peer.accepted == 2  # the kept one, then exactly one dial
            assert sleeps == []
        finally:
            peer.close()

    def test_long_poll_timeout_applies_on_a_reused_socket(self, counted):
        """Per-request timeouts are set on the kept socket: a long-poll
        outlasting the client's default timeout succeeds on a reused
        connection, and the default is back for the next request."""
        url, accepted = counted
        with ServiceClient(url, timeout=0.5, retries=0) as client:
            spec = ExperimentSpec("heldpoll", _trials(400, "slow-held"),
                                  lambda r: r)
            reply = client.submit_experiment(experiment_to_wire(spec))
            held = f"/jobs/{reply['job_id']}?wait=1.0&cursor=400"
            try:
                t0 = time.monotonic()
                progress = client.job(reply["job_id"], wait=1.0, cursor=400)
                assert time.monotonic() - t0 >= 0.9  # held past 0.5 s
                assert progress["state"] not in ("done", "failed")
                assert len(accepted) == 1
                # The same poll without the per-request allowance runs
                # into the default timeout again, on that same socket.
                with pytest.raises(OSError):
                    client._request("GET", held)
                assert len(accepted) == 1
            finally:
                client.cancel(reply["job_id"])
