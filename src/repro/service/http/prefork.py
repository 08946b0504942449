"""Pre-fork, keep-alive HTTP/1.1 serving for the protection app — stdlib only.

The one HTTP server of the protection app.  Heavy multi-tenant traffic must
multiplex thousands of small calls (status polls, fleet chunk POSTs,
detects) without paying a TCP handshake or a thread start each, so the
frontend is shaped like this:

* :class:`PreForkServer` — a parent that binds the port once and forks N
  worker **processes**.  Where the platform offers ``SO_REUSEPORT`` each
  worker binds its own listening socket on the shared port and the kernel
  load-balances connections across them; elsewhere the children inherit the
  parent's listening socket and share ``accept``.  Dead workers are respawned;
  ``SIGTERM`` drains: stop accepting, finish in-flight requests, exit.
* :class:`HTTPWorker` — one serving process (or thread, via
  :func:`serve_worker_in_thread` for tests and embedders): an accept
  loop feeding a **bounded connection queue** drained by a fixed pool of
  handler threads.  A full queue sheds load with ``503`` + ``Retry-After``
  instead of letting a silent kernel backlog time callers out; queue depth,
  shed count and connection count surface in ``/metrics``.
* **Keep-alive** — each connection serves many HTTP/1.1 requests (idle
  timeout, max-requests cap), so :class:`~repro.service.http.client.ServiceClient`
  and the :class:`~repro.service.runners.RemoteRunner` fleet hop stop paying
  a TCP handshake per call.  Transfer framing (``Content-Length`` and
  ``chunked``) is decoded by the server per PEP 3333's hop-by-hop rule and
  the body is handed to the app as a terminated ``wsgi.input`` stream
  (``environ["wsgi.input_terminated"] = True``, the de-facto flag), which is
  what keeps the connection byte-exact between pipelined requests.
* :class:`RateLimiter` — per-tenant token buckets keyed on the bearer token;
  over-limit requests answer ``429`` with ``Retry-After`` and the uniform
  ``{"error": ...}`` JSON before any service work runs.

The WSGI application mounted underneath is
:class:`~repro.service.http.app.ProtectionApp`, which any other WSGI
container can serve as well: auth, streaming CSV bodies, tracing headers and
the byte/bit-identity invariants do not depend on the server — asserted by
``tests/service/test_prefork.py`` and ``benchmarks/bench_load.py``.

Worker sizing: each worker process handles up to ``handler_threads``
concurrent connections (a kept-alive idle connection parks its handler
thread until the idle timeout); ``queue_limit`` more may wait in the
admission queue before new arrivals shed.  ``processes`` ≈ CPU cores is the
right default for CPU-bound protect/detect traffic.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import socket
import sys
import threading
import time
import traceback
from typing import Callable, Iterable, Mapping
from urllib.parse import unquote

from repro.service.options import (
    DEFAULT_HANDLER_THREADS,
    DEFAULT_KEEPALIVE_SECONDS,
    DEFAULT_MAX_REQUESTS_PER_CONNECTION,
    DEFAULT_QUEUE_LIMIT,
)

__all__ = [
    "DEFAULT_KEEPALIVE_SECONDS",
    "DEFAULT_MAX_REQUESTS_PER_CONNECTION",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_HANDLER_THREADS",
    "RateLimiter",
    "HTTPWorker",
    "PreForkServer",
    "serve_worker_in_thread",
]

#: Listen backlog behind the explicit admission queue.  Small on purpose:
#: admission control lives in the queue (visible, counted, shed with 503),
#: not in a silent kernel backlog.
LISTEN_BACKLOG = 16

#: ``Retry-After`` seconds on a shed (503) response.
SHED_RETRY_AFTER = 1

#: Unconsumed request-body bytes the server will drain to keep a connection
#: alive after the app answered without reading the body (an early 401/405);
#: larger leftovers close the connection instead.
DRAIN_CAP_BYTES = 1 << 20

#: Longest request/header/chunk-size line accepted.
_MAX_LINE = 65536

#: Most header lines accepted per request.
_MAX_HEADERS = 200

_BLOCK = 65536

#: Routes exempt from rate limiting even when a bearer token is presented
#: (liveness and scraping must keep answering while a tenant is throttled).
_RATE_LIMIT_EXEMPT = ("/healthz", "/metrics")

_STATUS_REASONS = {
    400: "Bad Request",
    408: "Request Timeout",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


class _ProtocolError(Exception):
    """A malformed request that aborts the connection with *status*."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# --------------------------------------------------------------- rate limiting
class RateLimiter:
    """Per-key token buckets: *rate* requests/second refill, *burst* capacity.

    Keys are bearer tokens, so the limit is per tenant credential.  Buckets
    live per worker process — the effective tenant ceiling is
    ``rate × processes``, which is the documented pre-fork semantics (each
    worker defends itself; see docs/http.md).  ``admit`` returns ``None``
    when the request may proceed, else the seconds after which a retry could
    succeed (the ``Retry-After`` value).
    """

    def __init__(self, rate: float, burst: int | None = None) -> None:
        if rate <= 0:
            raise ValueError("rate limit must be positive (requests/second)")
        self.rate = float(rate)
        self.burst = max(1, int(burst if burst is not None else math.ceil(2 * rate)))
        self._lock = threading.Lock()
        self._buckets: dict[str, list[float]] = {}  # key -> [tokens, stamp]
        self._max_buckets = 10_000

    def admit(self, key: str) -> float | None:
        now = time.monotonic()
        with self._lock:
            bucket = self._buckets.pop(key, None)
            if bucket is None:
                bucket = [float(self.burst), now]
                while len(self._buckets) >= self._max_buckets:
                    self._buckets.pop(next(iter(self._buckets)))
            tokens, stamp = bucket
            tokens = min(float(self.burst), tokens + (now - stamp) * self.rate)
            admitted = tokens >= 1.0
            if admitted:
                tokens -= 1.0
            bucket[0], bucket[1] = tokens, now
            # Re-insertion keeps eviction LRU-ish, like the watermarker cache.
            self._buckets[key] = bucket
            if admitted:
                return None
            return (1.0 - tokens) / self.rate


# ----------------------------------------------------------------- body input
class _EmptyBody:
    """``wsgi.input`` for a bodiless request."""

    complete = True

    def read(self, size: int = -1) -> bytes:  # noqa: ARG002 - stream protocol
        return b""

    def drain(self, cap: int) -> bool:  # noqa: ARG002
        return True


class _KnownLengthBody:
    """``wsgi.input`` for a ``Content-Length`` body: never reads past it.

    ``read`` returns ``b""`` at the body's end, so the app can stream to EOF
    (``wsgi.input_terminated``) and the bytes that follow — the next pipelined
    request — stay untouched.
    """

    def __init__(self, fp, length: int) -> None:
        self._fp = fp
        self._remaining = int(length)

    @property
    def complete(self) -> bool:
        return self._remaining <= 0

    def read(self, size: int = -1) -> bytes:
        if self._remaining <= 0:
            return b""
        if size is None or size < 0 or size > self._remaining:
            size = self._remaining
        block = self._fp.read(size)
        if not block:
            self._remaining = -1  # poisoned: never reusable
            raise ValueError("truncated body (short read against Content-Length)")
        self._remaining -= len(block)
        return block

    def drain(self, cap: int) -> bool:
        """Discard the unread remainder if it fits *cap*; True when complete."""
        if self._remaining < 0:
            return False
        if self._remaining > cap:
            return False
        try:
            while self._remaining > 0:
                self.read(min(self._remaining, _BLOCK))
        except ValueError:
            return False
        return True


class _ChunkedBody:
    """``wsgi.input`` for a chunked body, decoded by the server.

    Per PEP 3333 transfer framing is hop-by-hop: the server owns it, the app
    sees only payload bytes with a real EOF.  Decoding server-side is also
    what makes keep-alive exact — the reader knows precisely where the body
    ends, so the connection is positioned at the next request line.
    """

    def __init__(self, fp) -> None:
        self._fp = fp
        self._remaining = 0
        self._complete = False
        self._broken = False

    @property
    def complete(self) -> bool:
        return self._complete

    def _begin_chunk(self) -> None:
        size_line = self._fp.readline(_MAX_LINE + 1)
        if not size_line or len(size_line) > _MAX_LINE:
            self._broken = True
            raise ValueError("truncated chunked body (missing chunk size)")
        try:
            size = int(size_line.split(b";", 1)[0].strip() or b"0", 16)
        except ValueError:
            self._broken = True
            raise ValueError("malformed chunked body (bad chunk size)") from None
        if size == 0:
            while True:  # consume trailers up to the final blank line
                trailer = self._fp.readline(_MAX_LINE + 1)
                if trailer in (b"", b"\r\n", b"\n"):
                    break
            self._complete = True
            return
        self._remaining = size

    def read(self, size: int = -1) -> bytes:
        if size is None or size < 0:
            blocks = []
            while True:
                block = self.read(_BLOCK)
                if not block:
                    return b"".join(blocks)
                blocks.append(block)
        if self._complete or self._broken:
            return b""
        if self._remaining == 0:
            self._begin_chunk()
            if self._complete:
                return b""
        block = self._fp.read(min(size, self._remaining))
        if not block:
            self._broken = True
            raise ValueError("truncated chunked body (short chunk)")
        self._remaining -= len(block)
        if self._remaining == 0:
            self._fp.readline(_MAX_LINE)  # the CRLF closing this chunk
        return block

    def drain(self, cap: int) -> bool:
        if self._broken:
            return False
        consumed = 0
        try:
            while not self._complete and consumed <= cap:
                consumed += len(self.read(_BLOCK))
        except ValueError:
            return False
        return self._complete


# -------------------------------------------------------------------- request
class _Request:
    __slots__ = ("method", "target", "version", "headers")

    def __init__(self, method: str, target: str, version: str, headers: dict[str, str]) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers  # lower-cased names


class _ConnState:
    """Where a connection's handler is, for the drain logic.

    ``receiving`` — reading (or waiting for) the connection's *current*
    request: an accept-to-first-byte window or a request already on the
    wire; drain lets it finish.  ``busy`` — a request is being processed.
    ``parked`` — waiting for a possible *next* keep-alive request; drain
    closes these immediately.
    """

    __slots__ = ("phase",)

    def __init__(self) -> None:
        self.phase = "receiving"


def _simple_body(status: int, message: str) -> bytes:
    return (json.dumps({"error": message}, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_simple_response(
    conn: socket.socket,
    status: int,
    message: str,
    *,
    extra_headers: Iterable[tuple[str, str]] = (),
) -> None:
    """A self-contained JSON error written straight to the socket, then close.

    Used where the app cannot answer: load sheds, rate limits and protocol
    errors.  Same ``{"error": ...}`` document every other failure path emits.
    """
    body = _simple_body(status, message)
    reason = _STATUS_REASONS.get(status, "Error")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json; charset=utf-8",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    head += [f"{name}: {value}" for name, value in extra_headers]
    try:
        conn.sendall(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    except OSError:
        pass


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass


# --------------------------------------------------------------------- worker
class HTTPWorker:
    """One serving process: accept loop, bounded queue, keep-alive handlers.

    *sock* is a bound, listening socket the worker takes ownership of.  The
    worker serves until :meth:`begin_drain` (or SIGTERM via
    :class:`PreForkServer`): the accept loop stops, queued and in-flight
    requests finish (idle kept-alive connections are closed immediately),
    handler threads join, and :meth:`serve_forever` returns.

    *metrics* is the app's :class:`~repro.service.http.metrics.ServiceMetrics`
    (or ``None``): the worker records connections, queue depth, sheds and
    rate-limited requests into it so ``/metrics`` tells the whole admission
    story, not just what reached the WSGI layer.
    """

    def __init__(
        self,
        app: Callable,
        sock: socket.socket,
        *,
        keepalive_seconds: float = DEFAULT_KEEPALIVE_SECONDS,
        max_requests_per_connection: int = DEFAULT_MAX_REQUESTS_PER_CONNECTION,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        handler_threads: int = DEFAULT_HANDLER_THREADS,
        rate_limiter: RateLimiter | None = None,
        metrics=None,
        multiprocess: bool = False,
        verbose: bool = False,
        drain_grace_seconds: float = 30.0,
        poll_seconds: float = 0.2,
    ) -> None:
        self._app = app
        self._sock = sock
        self._host, self._port = sock.getsockname()[:2]
        self._keepalive = float(keepalive_seconds)
        self._max_requests = max(1, int(max_requests_per_connection))
        self._queue_limit = max(1, int(queue_limit))
        self._queue: queue.Queue = queue.Queue(maxsize=self._queue_limit)
        self._handler_count = max(1, int(handler_threads))
        self._rate_limiter = rate_limiter
        self._metrics = metrics
        self._multiprocess = multiprocess
        self._verbose = verbose
        self._drain_grace = float(drain_grace_seconds)
        self._poll = float(poll_seconds)
        self._draining = threading.Event()
        self._done = threading.Event()
        self._conns: dict[socket.socket, _ConnState] = {}
        self._conns_lock = threading.Lock()
        if self._metrics is not None:
            self._metrics.record_queue(0, self._queue_limit)

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self._port}"

    # ------------------------------------------------------------- lifecycle
    def begin_drain(self) -> None:
        """Stop accepting; finish in-flight work; ``serve_forever`` returns.

        Signal-safe (sets an event), so it is exactly what a SIGTERM handler
        calls.
        """
        self._draining.set()

    def close(self, timeout: float | None = None) -> None:
        """Drain and wait for :meth:`serve_forever` to finish (test helper)."""
        self.begin_drain()
        self._done.wait(self._drain_grace + 5.0 if timeout is None else timeout)

    def serve_forever(self) -> None:
        handlers = [
            threading.Thread(target=self._handler_loop, name=f"http-handler-{i}", daemon=True)
            for i in range(self._handler_count)
        ]
        for thread in handlers:
            thread.start()
        self._sock.settimeout(self._poll)
        try:
            while not self._draining.is_set():
                try:
                    conn, addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                self._admit(conn, addr)
        finally:
            try:
                self._sock.close()
            except OSError:
                pass
            self._drain(handlers)
            self._done.set()

    # -------------------------------------------------------------- admission
    def _admit(self, conn: socket.socket, addr) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        if self._metrics is not None:
            self._metrics.record_connection()
        try:
            self._queue.put_nowait((conn, addr))
        except queue.Full:
            # Explicit backpressure: the caller learns *now* that this worker
            # is saturated, instead of waiting out a kernel backlog.
            if self._metrics is not None:
                self._metrics.record_shed()
            _write_simple_response(
                conn,
                503,
                f"server saturated ({self._queue_limit} connections queued); retry shortly",
                extra_headers=[("Retry-After", str(SHED_RETRY_AFTER))],
            )
            _close_quietly(conn)
        self._record_queue_depth()

    def _record_queue_depth(self) -> None:
        if self._metrics is not None:
            self._metrics.record_queue(self._queue.qsize(), self._queue_limit)

    # ---------------------------------------------------------------- workers
    def _handler_loop(self) -> None:
        while True:
            try:
                conn, addr = self._queue.get(timeout=self._poll)
            except queue.Empty:
                if self._draining.is_set():
                    return
                continue
            self._record_queue_depth()
            state = _ConnState()
            with self._conns_lock:
                self._conns[conn] = state
            try:
                self._handle_connection(conn, addr, state)
            except Exception:  # noqa: BLE001 - one bad connection must not kill the worker
                if self._verbose:
                    traceback.print_exc()
            finally:
                with self._conns_lock:
                    self._conns.pop(conn, None)
                _close_quietly(conn)

    def _drain(self, handlers) -> None:
        """Finish in-flight requests, close parked connections, join handlers."""
        deadline = time.monotonic() + self._drain_grace
        while True:
            with self._conns_lock:
                parked = [
                    conn for conn, state in self._conns.items() if state.phase == "parked"
                ]
                active = len(self._conns) - len(parked)
            for conn in parked:
                _close_quietly(conn)  # wakes the handler waiting in readline
            if (active == 0 and self._queue.empty()) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        with self._conns_lock:
            leftovers = list(self._conns)
        for conn in leftovers:
            _close_quietly(conn)
        for thread in handlers:
            thread.join(timeout=1.0)

    # ------------------------------------------------------------- connection
    def _handle_connection(self, conn: socket.socket, addr, state: _ConnState) -> None:
        conn.settimeout(self._keepalive)
        fp = conn.makefile("rb", buffering=_BLOCK)
        served = 0
        try:
            while served < self._max_requests:
                # First request: the connection is "receiving" (drain lets it
                # land).  Afterwards it is "parked" (drain closes it).
                state.phase = "receiving" if served == 0 else "parked"
                try:
                    request = self._read_request(fp)
                except (socket.timeout, OSError, ValueError):
                    return  # idle timeout or peer went away between requests
                except _ProtocolError as error:
                    _write_simple_response(conn, error.status, error.message)
                    return
                if request is None:
                    return  # clean EOF: the peer closed between requests
                state.phase = "busy"
                try:
                    served += 1
                    keep_alive = self._serve_request(conn, fp, request, served)
                finally:
                    state.phase = "parked"
                if not keep_alive:
                    return
        finally:
            try:
                fp.close()
            except OSError:
                pass

    def _read_request(self, fp) -> _Request | None:
        line = fp.readline(_MAX_LINE + 1)
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise _ProtocolError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _ProtocolError(400, f"malformed request line {line[:80]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = fp.readline(_MAX_LINE + 1)
            if not raw:
                raise _ProtocolError(400, "truncated request headers")
            if len(raw) > _MAX_LINE:
                raise _ProtocolError(400, "header line too long")
            if raw in (b"\r\n", b"\n"):
                return _Request(method.upper(), target, version, headers)
            text = raw.decode("latin-1").rstrip("\r\n")
            name, sep, value = text.partition(":")
            if not sep or not name.strip():
                raise _ProtocolError(400, f"malformed header line {text[:80]!r}")
            key = name.strip().lower()
            value = value.strip()
            headers[key] = f"{headers[key]},{value}" if key in headers else value
        raise _ProtocolError(400, f"too many request headers (max {_MAX_HEADERS})")

    def _serve_request(self, conn: socket.socket, fp, request: _Request, served: int) -> bool:
        """Run one request through the app; returns whether to keep the connection."""
        headers = request.headers
        path, _, query = request.target.partition("?")

        # Rate limiting happens before any body read or service work.
        if self._rate_limiter is not None and path not in _RATE_LIMIT_EXEMPT:
            token = _bearer_of(headers.get("authorization", ""))
            if token is not None:
                retry_after = self._rate_limiter.admit(token)
                if retry_after is not None:
                    if self._metrics is not None:
                        self._metrics.record_rate_limited()
                    _write_simple_response(
                        conn,
                        429,
                        "rate limit exceeded for this token; retry after the Retry-After delay",
                        extra_headers=[("Retry-After", str(max(1, math.ceil(retry_after))))],
                    )
                    return False  # the unread body makes the framing unusable

        if "100-continue" in headers.get("expect", "").lower():
            try:
                conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            except OSError:
                return False

        body = self._body_reader(fp, headers)
        environ = self._environ(request, path, query, body, conn)

        captured: dict = {}
        writes: list[bytes] = []

        def start_response(status: str, response_headers, exc_info=None):
            if exc_info is not None and captured.get("sent"):
                raise exc_info[1].with_traceback(exc_info[2])
            captured["status"] = status
            captured["headers"] = list(response_headers)
            return writes.append

        try:
            result = self._app(environ, start_response)
        except Exception:  # noqa: BLE001 - the app answers 500s itself; this is a server bug
            if self._verbose:
                traceback.print_exc()
            _write_simple_response(conn, 500, "internal server error")
            return False

        # Decide keep-alive: protocol defaults, explicit Connection tokens,
        # the per-connection request cap, drain mode, and whether the request
        # body left the stream positioned at the next request.
        connection_tokens = [
            token.strip().lower() for token in headers.get("connection", "").split(",")
        ]
        keep_alive = request.version != "HTTP/1.0" or "keep-alive" in connection_tokens
        if "close" in connection_tokens:
            keep_alive = False
        if served >= self._max_requests or self._draining.is_set():
            keep_alive = False
        if keep_alive and not body.complete:
            keep_alive = body.drain(DRAIN_CAP_BYTES)

        try:
            sent = self._write_response(
                conn, request, captured, writes, result, keep_alive=keep_alive
            )
        finally:
            close = getattr(result, "close", None)
            if close is not None:
                close()
        if self._verbose:
            status = str(captured.get("status", "?")).split(" ", 1)[0]
            print(
                f'{environ.get("REMOTE_ADDR", "-")} "{request.method} {request.target}" {status}',
                file=sys.stderr,
            )
        return keep_alive and sent

    def _body_reader(self, fp, headers: Mapping[str, str]):
        if "chunked" in headers.get("transfer-encoding", "").lower():
            return _ChunkedBody(fp)
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _ProtocolError(400, "malformed Content-Length") from None
        if length > 0:
            return _KnownLengthBody(fp, length)
        return _EmptyBody()

    def _environ(self, request: _Request, path: str, query: str, body, conn) -> dict:
        try:
            peer = conn.getpeername()[0]
        except OSError:
            peer = ""
        environ = {
            "REQUEST_METHOD": request.method,
            "PATH_INFO": unquote(path),
            "QUERY_STRING": query,
            "SCRIPT_NAME": "",
            "SERVER_NAME": self._host,
            "SERVER_PORT": str(self._port),
            "SERVER_PROTOCOL": request.version,
            "REMOTE_ADDR": peer,
            "wsgi.version": (1, 0),
            "wsgi.url_scheme": "http",
            "wsgi.input": body,
            # The server decoded the transfer framing (hop-by-hop, PEP 3333):
            # the app streams wsgi.input to EOF instead of re-parsing framing.
            "wsgi.input_terminated": True,
            "wsgi.errors": sys.stderr,
            "wsgi.multithread": True,
            "wsgi.multiprocess": self._multiprocess,
            "wsgi.run_once": False,
        }
        for name, value in request.headers.items():
            if name == "content-type":
                environ["CONTENT_TYPE"] = value
            elif name == "content-length":
                environ["CONTENT_LENGTH"] = value
            elif name in ("transfer-encoding", "connection", "keep-alive", "expect"):
                continue  # hop-by-hop: the server owns these
            else:
                environ["HTTP_" + name.upper().replace("-", "_")] = value
        return environ

    def _write_response(
        self, conn: socket.socket, request: _Request, captured: dict, writes, result, *, keep_alive: bool
    ) -> bool:
        status = captured.get("status")
        if status is None:
            _write_simple_response(conn, 500, "application returned without a response")
            return False
        code = int(str(status).split(" ", 1)[0])
        headers: list[tuple[str, str]] = []
        content_length: int | None = None
        for name, value in captured.get("headers", []):
            lname = name.lower()
            if lname in ("connection", "transfer-encoding", "keep-alive"):
                continue  # framing is the server's, not the app's
            if lname == "content-length":
                content_length = int(value)
            headers.append((name, value))

        bodiless = request.method == "HEAD" or code < 200 or code in (204, 304)
        chunked = False
        if not bodiless and content_length is None:
            if keep_alive:
                chunked = True
                headers.append(("Transfer-Encoding", "chunked"))
            # else: close-delimited body (HTTP/1.0 semantics)
        headers.append(("Connection", "keep-alive" if keep_alive else "close"))

        head = [f"HTTP/1.1 {status}"]
        head += [f"{name}: {value}" for name, value in headers]
        try:
            conn.sendall(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            if not bodiless:
                for block in writes:
                    self._send_block(conn, block, chunked)
                for block in result:
                    self._send_block(conn, block, chunked)
                if chunked:
                    conn.sendall(b"0\r\n\r\n")
        except OSError:
            return False
        return True

    @staticmethod
    def _send_block(conn: socket.socket, block: bytes, chunked: bool) -> None:
        if not block:
            return
        if chunked:
            conn.sendall(b"%x\r\n" % len(block) + block + b"\r\n")
        else:
            conn.sendall(block)


def _bearer_of(header: str) -> str | None:
    scheme, _, credential = header.partition(" ")
    if scheme.lower() != "bearer" or not credential.strip():
        return None
    return credential.strip()


# ------------------------------------------------------------------- pre-fork
def _bind_socket(host: str, port: int, *, reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuseport:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


class PreForkServer:
    """N worker processes sharing one port; the parent only supervises.

    The parent binds first (resolving an ephemeral port), then forks.  With
    ``SO_REUSEPORT`` each child binds its own listening socket on the shared
    port and the kernel spreads connections across them (the parent's socket
    never listens, so it receives none); without it the children inherit and
    ``accept`` on the parent's listening socket.  Either way every worker is
    a full :class:`HTTPWorker` — keep-alive, bounded queue, rate limiting —
    over a fork-copy of the same WSGI app, whose vault state stays coherent
    across processes because every registry write is a SQLite transaction
    and every read a live query (each process opens its own connection).

    Lifecycle: :meth:`serve_forever` installs a SIGTERM handler that drains —
    children stop accepting, finish in-flight requests and exit; the parent
    reaps them and returns.  A worker that dies any other way is respawned.

    ``/metrics`` is per process: each worker answers with its own counters
    stamped ``host:pid`` (see docs/observability.md for the scrape model).
    """

    def __init__(
        self,
        app: Callable,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        processes: int = 1,
        **worker_options,
    ) -> None:
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only module
            raise RuntimeError("PreForkServer requires os.fork (POSIX)")
        self._processes = max(1, int(processes))
        self._reuseport = hasattr(socket, "SO_REUSEPORT")
        if self._reuseport:
            try:
                self._sock = _bind_socket(host, port, reuseport=True)
            except OSError:
                self._reuseport = False
        if not self._reuseport:
            self._sock = _bind_socket(host, port, reuseport=False)
            self._sock.listen(LISTEN_BACKLOG)
        self._host, self._port = self._sock.getsockname()[:2]
        self._app = app
        self._worker_options = worker_options
        self._pids: dict[int, int] = {}  # pid -> slot
        self._draining = False
        self._signalled = False
        self._started = False

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self._port}"

    @property
    def processes(self) -> int:
        return self._processes

    @property
    def reuseport(self) -> bool:
        return self._reuseport

    @property
    def worker_pids(self) -> tuple[int, ...]:
        return tuple(sorted(self._pids))

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Fork the workers (idempotent).  The port is accepting on return —
        every worker's listening socket is created in the parent *before* the
        fork, so a caller may advertise the URL the moment this returns."""
        if self._started:
            return
        self._started = True
        for slot in range(self._processes):
            self._spawn(slot)

    def begin_drain(self) -> None:
        self._draining = True

    def serve_forever(self, *, poll_seconds: float = 0.2) -> None:
        previous = signal.signal(signal.SIGTERM, lambda *_: self.begin_drain())
        self.start()
        try:
            while self._pids:
                if self._draining and not self._signalled:
                    self._terminate_children()
                self._reap(respawn=not self._draining)
                time.sleep(poll_seconds)
        finally:
            signal.signal(signal.SIGTERM, previous)
            self.close()

    def close(self) -> None:
        """Terminate and reap any remaining children; release the port."""
        self._draining = True
        if self._pids:
            self._terminate_children()
            deadline = time.monotonic() + 10.0
            while self._pids and time.monotonic() < deadline:
                self._reap(respawn=False)
                time.sleep(0.05)
            for pid in list(self._pids):  # drain grace expired: force
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            while self._pids:
                self._reap(respawn=False, block=True)
        try:
            self._sock.close()
        except OSError:
            pass

    # -------------------------------------------------------------- plumbing
    def _terminate_children(self) -> None:
        self._signalled = True
        for pid in list(self._pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass

    def _reap(self, *, respawn: bool, block: bool = False) -> None:
        while self._pids:
            try:
                pid, _status = os.waitpid(-1, 0 if block else os.WNOHANG)
            except ChildProcessError:
                self._pids.clear()
                return
            if pid == 0:
                return
            slot = self._pids.pop(pid, None)
            if slot is not None and respawn:
                self._spawn(slot)
            if block:
                return

    def _spawn(self, slot: int) -> None:
        if self._reuseport:
            # Created in the parent before the fork so the port never has a
            # listener gap: the child's socket is already accepting when
            # start() returns (the parent closes its copy right after).
            child_sock = _bind_socket(self._host, self._port, reuseport=True)
            child_sock.listen(LISTEN_BACKLOG)
        else:
            child_sock = self._sock  # inherited, already listening
        pid = os.fork()
        if pid:
            self._pids[pid] = slot
            if self._reuseport:
                child_sock.close()
            return
        # Child: never unwind into the parent's stack.
        code = 1
        try:
            code = self._child_main(child_sock)
        except BaseException:  # noqa: BLE001
            traceback.print_exc()
        finally:
            os._exit(code)

    def _child_main(self, sock: socket.socket) -> int:
        if self._reuseport:
            try:
                self._sock.close()  # the parent's bound-but-silent reservation
            except OSError:
                pass
        worker = HTTPWorker(
            self._app, sock, multiprocess=self._processes > 1, **self._worker_options
        )
        signal.signal(signal.SIGTERM, lambda *_: worker.begin_drain())
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent drives shutdown
        worker.serve_forever()
        return 0


# ------------------------------------------------------------------- helpers
def serve_worker_in_thread(
    app: Callable, host: str = "127.0.0.1", port: int = 0, **worker_options
) -> tuple[HTTPWorker, str]:
    """One keep-alive worker on a daemon thread; returns ``(worker, base_url)``.

    The in-process twin of a pre-fork child, for tests and benchmarks: full
    HTTP/1.1 keep-alive, queue, rate-limit and drain semantics without
    forking.  Stop with ``worker.close()``.
    """
    sock = _bind_socket(host, port, reuseport=False)
    sock.listen(LISTEN_BACKLOG)
    worker = HTTPWorker(app, sock, **worker_options)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    return worker, worker.base_url
