"""The pre-fork keep-alive serving layer: protocol conformance and invariants.

What this suite pins down, per the serving-layer ISSUE:

* **keep-alive conformance** — sequential requests on one connection, idle
  timeout closes, max-requests-per-connection recycles, HTTP/1.0 closes;
* **identity invariants** — protect output byte-identical and detect
  reports bit-identical through the pre-fork worker;
* **admission control** — a saturated queue sheds with ``503 + Retry-After``
  and counts it, per-tenant token buckets answer ``429``;
* **graceful drain** — ``begin_drain`` (and SIGTERM on the real pre-fork
  server) finishes an in-flight upload before the listener dies;
* **fleet keep-alive** — a RemoteRunner detect posts all its chunks over a
  handful of reused connections (``connections_opened``), bit-identical,
  and a traced run still assembles into one cross-process tree.
"""

import filecmp
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService, RemoteRunner
from repro.service.http import HTTPServiceError, ProtectionApp, ServiceClient
from repro.service.http.prefork import RateLimiter, serve_worker_in_thread
from repro.telemetry.trace import Tracer, activate


# ----------------------------------------------------------------- raw-socket
def _connect(url: str) -> socket.socket:
    host, port = url.split("//", 1)[1].split(":")
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.settimeout(10)
    return sock


def _send(sock: socket.socket, text: str) -> None:
    sock.sendall(text.encode("latin-1"))


def _read_response(handle) -> tuple[int, dict, bytes]:
    """One HTTP response off a socket file: (status, headers, body)."""
    status_line = handle.readline().decode("latin-1")
    status = int(status_line.split(" ", 2)[1])
    headers: dict[str, str] = {}
    while True:
        line = handle.readline().decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        remaining = int(headers["content-length"])
        while remaining:
            block = handle.read(remaining)
            if not block:
                break
            body += block
            remaining -= len(block)
    elif headers.get("transfer-encoding") == "chunked":
        while True:
            size = int(handle.readline().split(b";", 1)[0].strip() or b"0", 16)
            if size == 0:
                handle.readline()
                break
            body += handle.read(size)
            handle.readline()
    return status, headers, body


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("prefork") / "claims.csv"
    generate_medical_table(size=800, seed=41).to_csv(str(path))
    return str(path)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One keep-alive worker over a fresh vault; yields (worker, url, vault_dir, app)."""
    vault_dir = str(tmp_path_factory.mktemp("prefork") / "vault")
    service = ProtectionService(KeyVault.init(vault_dir), chunk_size=256)
    app = ProtectionApp(service)
    worker, url = serve_worker_in_thread(app, metrics=app.metrics)
    yield worker, url, vault_dir, app
    worker.close()


@pytest.fixture(scope="module")
def owner(served):
    _, url, _, _ = served
    payload = ServiceClient(url).register_tenant("owner", k=10, eta=20, epsilon=5)
    assert payload["tenant"] == "owner" and payload["token"]
    return ServiceClient(url, payload["token"]), payload["token"]


@pytest.fixture(scope="module")
def protected_http(served, owner, raw_csv, tmp_path_factory):
    client, _ = owner
    out = str(tmp_path_factory.mktemp("prefork") / "protected.csv")
    report = client.protect("owner", "claims", raw_csv, out)
    return out, report


class TestKeepAliveConformance:
    def test_sequential_requests_share_one_connection(self, served):
        """Three pipelined-sequential requests on one socket, one accept server-side."""
        _, url, _, app = served
        before = app.metrics.snapshot()["server"]["connections"]
        sock = _connect(url)
        handle = sock.makefile("rb")
        try:
            for _ in range(3):
                _send(sock, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status, headers, body = _read_response(handle)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["status"] == "ok"
        finally:
            handle.close()
            sock.close()
        after = app.metrics.snapshot()["server"]["connections"]
        assert after == before + 1

    def test_client_pools_connections(self, served):
        _, url, _, _ = served
        client = ServiceClient(url)
        for _ in range(5):
            assert client.health()["status"] == "ok"
            client.metrics()
        assert client.connections_opened == 1
        client.close()

    def test_idle_timeout_closes_connection(self, served):
        _, _, _, app = served
        worker, url = serve_worker_in_thread(app, keepalive_seconds=0.3)
        try:
            sock = _connect(url)
            handle = sock.makefile("rb")
            _send(sock, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, _ = _read_response(handle)
            assert status == 200
            # Past the idle timeout the server closes: recv sees EOF.
            sock.settimeout(5)
            assert sock.recv(1) == b""
            handle.close()
            sock.close()
        finally:
            worker.close()

    def test_max_requests_per_connection_recycles(self, served):
        _, _, _, app = served
        worker, url = serve_worker_in_thread(app, max_requests_per_connection=2)
        try:
            sock = _connect(url)
            handle = sock.makefile("rb")
            _send(sock, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            _, headers, _ = _read_response(handle)
            assert headers["connection"] == "keep-alive"
            _send(sock, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            _, headers, _ = _read_response(handle)
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""
            handle.close()
            sock.close()
        finally:
            worker.close()

    def test_http10_request_closes(self, served):
        _, url, _, _ = served
        sock = _connect(url)
        handle = sock.makefile("rb")
        _send(sock, "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
        status, headers, body = _read_response(handle)
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == "ok"
        assert sock.recv(1) == b""
        handle.close()
        sock.close()

    def test_malformed_request_line_answers_400(self, served):
        _, url, _, _ = served
        sock = _connect(url)
        handle = sock.makefile("rb")
        _send(sock, "NONSENSE\r\n\r\n")
        status, _, body = _read_response(handle)
        assert status == 400
        assert "error" in json.loads(body)
        handle.close()
        sock.close()

    def test_unread_small_body_keeps_connection(self, served):
        """The app never reads a 405's body; the server drains it and keeps going."""
        _, url, _, _ = served
        sock = _connect(url)
        handle = sock.makefile("rb")
        _send(sock, "POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello bytes")
        status, headers, _ = _read_response(handle)
        assert status == 405
        assert headers["connection"] == "keep-alive"
        _send(sock, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, _ = _read_response(handle)
        assert status == 200
        handle.close()
        sock.close()


class TestIdentityThroughPrefork:
    def test_protect_byte_identical_to_in_process(
        self, served, protected_http, raw_csv, tmp_path
    ):
        _, _, vault_dir, _ = served
        local_out = str(tmp_path / "local.csv")
        ProtectionService(KeyVault(vault_dir), chunk_size=999).protect(
            "owner", raw_csv, local_out, dataset_id="claims-local"
        )
        http_out, report = protected_http
        assert report["rows"] == 800
        assert filecmp.cmp(http_out, local_out, shallow=False)

    def test_detect_bit_identical_to_in_process(self, served, owner, protected_http):
        client, _ = owner
        _, _, vault_dir, _ = served
        http_out, _ = protected_http
        local = ProtectionService(KeyVault(vault_dir)).detect(
            "owner", http_out, dataset_id="claims"
        )
        payload = client.detect("owner", "claims", http_out, workers=2)
        assert payload["mark"] == local.mark
        assert payload["rows"] == local.rows
        assert payload["tuples_selected"] == local.tuples_selected
        assert payload["positions_with_votes"] == local.positions_with_votes
        assert payload["mark_loss"] == 0.0 and payload["ok"] is True


class TestRateLimit:
    def test_second_request_in_burst_window_answers_429(self, served, owner):
        _, _, _, app = served
        worker, url = serve_worker_in_thread(
            app, rate_limiter=RateLimiter(rate=0.5, burst=1), metrics=app.metrics
        )
        try:
            _, token = owner
            client = ServiceClient(url, token)
            before = app.metrics.snapshot()["server"]["rate_limited"]
            assert client.status("owner")  # first request rides the burst
            status, headers, response = client._request("GET", "/tenants/owner/status")
            body = response.read()
            response.close()
            assert status == 429
            assert "error" in json.loads(body)
            assert int(headers["Retry-After"]) >= 1
            assert app.metrics.snapshot()["server"]["rate_limited"] == before + 1
            client.close()
        finally:
            worker.close()

    def test_healthz_and_metrics_stay_exempt(self, served):
        _, _, _, app = served
        worker, url = serve_worker_in_thread(
            app, rate_limiter=RateLimiter(rate=0.5, burst=1), metrics=app.metrics
        )
        try:
            client = ServiceClient(url, "some-token")
            for _ in range(5):
                assert client.health()["status"] == "ok"
                client.metrics()
            client.close()
        finally:
            worker.close()

    def test_limiter_refills(self):
        limiter = RateLimiter(rate=1000.0, burst=1)
        assert limiter.admit("t") is None
        retry = limiter.admit("t")
        assert retry is not None and retry > 0
        time.sleep(0.01)
        assert limiter.admit("t") is None

    def test_buckets_are_per_token(self):
        limiter = RateLimiter(rate=0.001, burst=1)
        assert limiter.admit("a") is None
        assert limiter.admit("b") is None  # b has its own bucket
        assert limiter.admit("a") is not None


class TestLoadShed:
    def test_saturated_queue_sheds_503_with_retry_after(self, served):
        _, _, _, app = served
        worker, url = serve_worker_in_thread(
            app, handler_threads=1, queue_limit=1, metrics=app.metrics
        )
        try:
            before = app.metrics.snapshot()["server"]["sheds"]
            # Occupy the single handler with a half-sent request...
            busy = _connect(url)
            _send(busy, "GET /healthz HTTP/1.1\r\nHost: x\r\n")  # headers unfinished
            time.sleep(0.3)
            # ...fill the queue's one slot...
            queued = _connect(url)
            time.sleep(0.3)
            # ...and the next arrival sheds.
            shed = _connect(url)
            handle = shed.makefile("rb")
            status, headers, body = _read_response(handle)
            assert status == 503
            assert int(headers["retry-after"]) >= 1
            assert "error" in json.loads(body)
            assert headers["connection"] == "close"
            assert app.metrics.snapshot()["server"]["sheds"] >= before + 1
            handle.close()
            shed.close()
            # Releasing the handler (and closing, so it does not park on
            # keep-alive) lets the queued connection be served.
            _send(busy, "Connection: close\r\n\r\n")
            busy_handle = busy.makefile("rb")
            assert _read_response(busy_handle)[0] == 200
            _send(queued, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            queued_handle = queued.makefile("rb")
            assert _read_response(queued_handle)[0] == 200
            for item in (busy_handle, busy, queued_handle, queued):
                item.close()
        finally:
            worker.close()


class TestGracefulDrain:
    def test_drain_mid_upload_finishes_request(self, served, owner, protected_http):
        """begin_drain() while a detect body is mid-flight: the request completes."""
        _, _, _, app = served
        worker, url = serve_worker_in_thread(app, metrics=app.metrics)
        _, token = owner
        http_out, _ = protected_http
        with open(http_out, "rb") as handle:
            payload = handle.read()
        half = len(payload) // 2
        sock = _connect(url)
        _send(
            sock,
            "POST /tenants/owner/datasets/claims/detect HTTP/1.1\r\n"
            f"Host: x\r\nAuthorization: Bearer {token}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n",
        )
        sock.sendall(payload[:half])
        # Wait until the worker is actually processing the request (a drain
        # only guarantees *accepted* work finishes; a connection still in the
        # kernel backlog is legitimately reset when the listener closes).
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if any(state.phase == "busy" for state in worker._conns.values()):
                break
            time.sleep(0.01)
        worker.begin_drain()  # what SIGTERM triggers in a pre-fork child
        time.sleep(0.2)
        sock.sendall(payload[half:])
        handle = sock.makefile("rb")
        status, headers, body = _read_response(handle)
        assert status == 200
        assert headers["connection"] == "close"  # draining: no more requests
        assert json.loads(body)["mark_loss"] == 0.0
        handle.close()
        sock.close()
        # The worker is now fully down: new connections are refused.
        worker.close()
        with pytest.raises(OSError):
            _connect(url)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="pre-fork needs POSIX fork")
class TestPreForkProcesses:
    def _serve(self, vault_dir: str, *extra: str) -> tuple[subprocess.Popen, dict]:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--vault", vault_dir,
             "--port", "0", "--json", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        # --json pretty-prints one document; read until its braces balance.
        buffer, depth = "", 0
        while True:
            char = proc.stdout.read(1)
            if not char:
                raise AssertionError(f"serve died: {proc.stderr.read()}")
            buffer += char
            depth += {"{": 1, "}": -1}.get(char, 0)
            if depth == 0 and buffer.strip():
                return proc, json.loads(buffer)

    def test_prefork_serves_stamps_pids_and_drains_on_sigterm(self, tmp_path):
        vault_dir = str(tmp_path / "vault")
        KeyVault.init(vault_dir)
        proc, info = self._serve(vault_dir, "--processes", "2")
        try:
            assert info["processes"] == 2
            client = ServiceClient(info["url"], keepalive=False)
            assert client.health()["status"] == "ok"
            pids = set()
            for _ in range(12):
                pids.add(client.metrics()["server"]["pid"])
            assert pids and proc.pid not in pids
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=20)
        assert code == 0

    def test_sigterm_mid_upload_finishes_request(self, tmp_path, raw_csv):
        """The subprocess drain bar: SIGTERM lands mid-upload, the protect finishes."""
        vault_dir = str(tmp_path / "vault")
        KeyVault.init(vault_dir)
        proc, info = self._serve(vault_dir, "--processes", "1")
        try:
            url = info["url"]
            token = ServiceClient(url).register_tenant(
                "owner", k=10, eta=20, epsilon=5
            )["token"]
            client = ServiceClient(url, token)
            started = threading.Event()
            result: dict = {}

            def slow_upload():
                def body():
                    with open(raw_csv, "rb") as handle:
                        first = True
                        while True:
                            block = handle.read(4096)
                            if not block:
                                return
                            yield block
                            if first:
                                started.set()
                                first = False
                            time.sleep(0.05)

                out = str(tmp_path / "protected.csv")
                try:
                    status, _, response = client._request(
                        "POST", "/tenants/owner/datasets/d/protect", body=body
                    )
                    raw = response.read()
                    response.close()
                    result["status"] = status
                    result["bytes"] = len(raw)
                except Exception as error:  # noqa: BLE001 - report into the main thread
                    result["error"] = error

            uploader = threading.Thread(target=slow_upload)
            uploader.start()
            assert started.wait(timeout=10)
            proc.send_signal(signal.SIGTERM)  # lands mid-upload
            uploader.join(timeout=60)
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert result.get("error") is None, f"upload failed: {result.get('error')!r}"
        assert result["status"] == 200 and result["bytes"] > 0
        assert code == 0


class TestFleetKeepAlive:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory, raw_csv):
        base = tmp_path_factory.mktemp("prefork-fleet")
        vault_dir = str(base / "vault")
        service = ProtectionService(KeyVault.init(vault_dir), chunk_size=100)
        service.register_tenant("owner", k=10, eta=20, epsilon=5)
        protected = str(base / "protected.csv")
        service.protect("owner", raw_csv, protected, dataset_id="big")
        workers, urls = [], []
        for name in ("w1", "w2"):
            worker_service = ProtectionService(KeyVault.init(str(base / name)))
            app = ProtectionApp(worker_service)
            worker, url = serve_worker_in_thread(app, metrics=app.metrics)
            workers.append(worker)
            urls.append(url)
        yield {"service": service, "protected": protected, "urls": urls}
        for worker in workers:
            worker.close()

    def test_chunk_posts_reuse_connections_bit_identically(self, fleet):
        service = fleet["service"]
        runner = RemoteRunner(fleet["urls"])
        thread = service.detect("owner", fleet["protected"], dataset_id="big", workers=4)
        remote = service.detect(
            "owner", fleet["protected"], dataset_id="big", workers=4, runner=runner
        )
        assert remote.mark == thread.mark
        assert remote.rows == thread.rows == 800
        assert remote.tuples_selected == thread.tuples_selected
        assert remote.positions_with_votes == thread.positions_with_votes
        assert remote.mark_loss == thread.mark_loss
        # 800 rows / chunk_size 100 = 8 chunk POSTs (+ per-chunk retries
        # would only add more); keep-alive means the fleet's TCP connection
        # count stays at the concurrency level, far below the POST count.
        assert runner.connections_opened <= 5

    def test_traced_fleet_detect_assembles_one_tree(self, fleet):
        service = fleet["service"]
        runner = RemoteRunner(fleet["urls"])
        tracer = Tracer()
        with activate(tracer):
            service.detect("owner", fleet["protected"], dataset_id="big", runner=runner)
        spans = tracer.spans
        assert spans
        names = {span.name for span in spans}
        assert "http.client.detect_votes" in names  # the coordinator's hop
        assert "http.request" in names  # the worker's side, shipped back
        ids = {span.span_id for span in spans}
        for span in spans:
            assert span.trace_id == tracer.trace_id
            assert span.parent_id is None or span.parent_id in ids
