"""Stdlib HTTP client for the protection frontend (what ``--url`` drives).

Uploads stream: the CSV is fed to :mod:`http.client` as a block generator,
which transfer-encodes it chunked — constant memory on the wire no matter
the file size.  The protect download streams too: the response body is
copied to the output path in blocks and the JSON report is read from the
``X-Repro-Report`` header, so a protect round trip holds at most one block
of either CSV in memory.

Connections are **kept alive and pooled**: against the pre-fork server
(:mod:`repro.service.http.prefork`) every call reuses an idle connection
from a small thread-safe pool, so a fleet detect's hundreds of chunk POSTs
pay one TCP handshake, not one each.  A connection that went stale while
idle (the server's keep-alive timeout, a restart) is retried transparently
exactly once on a fresh connection — safe because a stale close means the
server never read the request.  A response that says ``Connection: close``
is never pooled, so against a server that closes every connection the
client degrades to one connection per request.  ``connections_opened``
counts real TCP connects, which is what the keep-alive tests assert on.

Errors surface as :class:`HTTPServiceError` carrying the status and the
server's ``{"error": ...}`` message.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
from typing import Iterator, Mapping
from urllib.parse import urlencode, urlsplit

from repro.service.http.app import REPORT_HEADER, TRACE_RESPONSE_HEADER
from repro.service.options import HTTPServiceError
from repro.service.streaming import SPOOL_CHUNK_BYTES
from repro.telemetry.trace import (
    PARENT_HEADER,
    TRACE_HEADER,
    current_span_id as _current_span_id,
    current_tracer as _current_tracer,
    span as _stage_span,
)

__all__ = ["HTTPServiceError", "ServiceClient"]

DEFAULT_TIMEOUT = 600.0

#: Idle connections retained per client; more concurrent callers than this
#: simply open (and afterwards close) extra connections.
MAX_IDLE_CONNECTIONS = 8

#: What a reused-but-stale connection raises: the server closed it while it
#: sat idle in the pool, which also guarantees this request was never
#: processed — the one transparent retry is therefore safe for any verb.
_STALE_ERRORS = (
    http.client.BadStatusLine,  # includes RemoteDisconnected
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


def _iter_file(path: str) -> Iterator[bytes]:
    with open(path, "rb") as handle:
        while True:
            block = handle.read(SPOOL_CHUNK_BYTES)
            if not block:
                return
            yield block


class _PooledResponse:
    """An ``HTTPResponse`` whose ``close()`` recycles the connection.

    The connection goes back to the client's idle pool only when the
    response was read to completion **and** the server did not announce
    ``Connection: close`` — ``will_close`` is how :mod:`http.client` records
    that, so HTTP/1.0 responses (always closing) recycle nothing and keep
    connection-per-request semantics automatically.
    """

    def __init__(self, client: "ServiceClient", connection, response) -> None:
        self._client = client
        self._connection = connection
        self._response = response

    def read(self, amt: int | None = None) -> bytes:
        return self._response.read(amt)

    def close(self) -> None:
        connection, self._connection = self._connection, None
        if connection is None:
            return
        try:
            reusable = self._response.isclosed() and not getattr(
                self._response, "will_close", True
            )
        except Exception:  # noqa: BLE001 - never let pooling break a request
            reusable = False
        if reusable:
            self._client._checkin(connection)
        else:
            connection.close()

    def __getattr__(self, name: str):
        return getattr(self._response, name)


class ServiceClient:
    """A thin, keep-alive client bound to one base URL + token.

    Thread-safe: the :class:`~repro.service.runners.RemoteRunner` posts
    chunks through one client from many threads, each call borrowing an
    idle pooled connection (or opening its own) for the request's duration.
    Pass ``keepalive=False`` for the old connection-per-request behaviour.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        keepalive: bool = True,
    ) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r} (stdlib frontend is http)")
        if not parts.hostname:
            raise ValueError(f"no host in service url {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path.rstrip("/")
        self._token = token
        self._timeout = timeout
        self._keepalive = keepalive
        self._pool_lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._connections_opened = 0
        self._closed = False

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self._port}{self._prefix}"

    @property
    def connections_opened(self) -> int:
        """TCP connections this client has opened — the keep-alive witness.

        Many requests over few connections is the whole point; tests assert
        this stays far below the request count against a keep-alive server.
        """
        with self._pool_lock:
            return self._connections_opened

    def close(self) -> None:
        """Close pooled idle connections (in-flight ones close via their response)."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------------- API
    def health(self) -> dict:
        return self._json_request("GET", "/healthz", authenticated=False)

    def status(self, tenant: str | None = None) -> dict:
        path = f"/tenants/{tenant}/status" if tenant else "/status"
        return self._json_request("GET", path)

    def register_tenant(
        self, tenant: str, *, admin_token: str | None = None, **params
    ) -> dict:
        """Register *tenant* and return the record summary incl. its bearer token."""
        body = json.dumps(params).encode("utf-8") if params else b""
        return self._json_request(
            "POST",
            f"/tenants/{tenant}",
            body=body,
            token=admin_token or self._token,
            headers={"Content-Type": "application/json"},
        )

    def protect(
        self,
        tenant: str,
        dataset: str,
        input_csv: str,
        output_csv: str,
        *,
        chunk_size: int | None = None,
        workers: int | None = None,
        runner: str | None = None,
    ) -> dict:
        """Stream *input_csv* up, the protected CSV down; return the report.

        *workers*/*runner* pick where the server runs protect's pass 2
        (``thread`` or ``process``; the remote runner is detect-only).
        """
        query_params = {"chunk_size": chunk_size, "workers": workers, "runner": runner}
        query = {name: value for name, value in query_params.items() if value is not None} or None
        with _stage_span("http.client.protect"):
            status, headers, response = self._request(
                "POST",
                f"/tenants/{tenant}/datasets/{dataset}/protect",
                query=query,
                body=lambda: _iter_file(input_csv),
            )
        self._ingest_trace(headers)
        try:
            if status != 200:
                raise self._error(status, response.read())
            report_json = headers.get(REPORT_HEADER)
            if not report_json:
                raise HTTPServiceError(status, f"response lacks the {REPORT_HEADER} header")
            with open(output_csv, "wb") as handle:
                while True:
                    block = response.read(SPOOL_CHUNK_BYTES)
                    if not block:
                        break
                    handle.write(block)
            report = json.loads(report_json)
        finally:
            response.close()
        report["output"] = os.path.abspath(output_csv)
        return report

    def detect(
        self,
        tenant: str,
        dataset: str,
        suspect_csv: str,
        *,
        workers: int | None = None,
        runner: str | None = None,
        max_loss: float | None = None,
        expected_mark: str | None = None,
        chunk_size: int | None = None,
        code: str | None = None,
    ) -> dict:
        query = {
            "workers": workers,
            "runner": runner,
            "max_loss": max_loss,
            "expected_mark": expected_mark,
            "chunk_size": chunk_size,
            "code": code,
        }
        with _stage_span("http.client.detect"):
            payload, headers = self._json_exchange(
                "POST",
                f"/tenants/{tenant}/datasets/{dataset}/detect",
                query={name: value for name, value in query.items() if value is not None},
                body=lambda: _iter_file(suspect_csv),
            )
        self._ingest_trace(headers)
        return payload

    def dispute(self, tenant: str, dataset: str, disputed_csv: str) -> dict:
        return self._json_request(
            "POST",
            f"/tenants/{tenant}/datasets/{dataset}/dispute",
            body=lambda: _iter_file(disputed_csv),
        )

    def metrics(self) -> dict:
        """This server's ``/metrics`` counters (no auth, like :meth:`health`)."""
        return self._json_request("GET", "/metrics", authenticated=False)

    def metrics_text(self) -> str:
        """The ``/metrics`` document in Prometheus text exposition format."""
        status, _, response = self._request(
            "GET", "/metrics", query={"format": "prometheus"}, authenticated=False
        )
        try:
            raw = response.read()
        finally:
            response.close()
        if status != 200:
            raise self._error(status, raw)
        return raw.decode("utf-8")

    def detect_votes(self, payload: dict, *, headers: Mapping[str, str] | None = None) -> dict:
        """POST one raw chunk to ``/internal/detect-votes`` — the fleet hop.

        *payload* is the :mod:`repro.service.wire` request document (spec +
        metadata + mark_length + header/lines); the response carries the
        chunk's row count and serialized ``DetectionVotes``.  This is what
        :class:`~repro.service.runners.RemoteRunner` calls per chunk; the
        token presented is the worker's admin/fleet token.  *headers* lets
        the coordinator stamp trace-propagation headers on the hop.
        """
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        return self._json_request(
            "POST",
            "/internal/detect-votes",
            body=json.dumps(payload).encode("utf-8"),
            headers=request_headers,
        )

    # ----------------------------------------------------------------- plumbing
    def _request(
        self,
        method: str,
        path: str,
        *,
        query: Mapping[str, object] | None = None,
        body=None,
        token: str | None = None,
        headers: Mapping[str, str] | None = None,
        authenticated: bool = True,
    ):
        """One request over a pooled connection; returns ``(status, headers, response)``.

        *body* may be ``None``, bytes, an iterator, or a **callable returning
        an iterator** — the callable shape is what streamed uploads use, so
        the body can be produced afresh if the first attempt hits a stale
        pooled connection.  A bare iterator is sent as-is but never retried
        (it may be partially consumed).  Closing the returned response gives
        the connection back to the pool when it is reusable.
        """
        target = self._prefix + path
        if query:
            target += "?" + urlencode(query)
        request_headers = dict(headers or {})
        tracer = _current_tracer()
        if tracer is not None and TRACE_HEADER not in request_headers:
            # Propagate the ambient trace so the server's spans join ours.
            request_headers[TRACE_HEADER] = tracer.trace_id
            parent = _current_span_id()
            if parent:
                request_headers[PARENT_HEADER] = parent
        bearer = token if token is not None else self._token
        if authenticated and bearer:
            request_headers["Authorization"] = f"Bearer {bearer}"

        replayable = body is None or isinstance(body, (bytes, bytearray)) or callable(body)
        retried = False
        while True:
            connection, reused = self._acquire()
            try:
                payload = body() if callable(body) else body
                try:
                    connection.request(method, target, body=payload, headers=request_headers)
                except (BrokenPipeError, ConnectionResetError):
                    # The server answered (e.g. 401) and closed before
                    # draining our streamed upload; the response is usually
                    # still readable — and if the connection was merely
                    # stale, getresponse raises and the retry path runs.
                    pass
                response = connection.getresponse()
            except _STALE_ERRORS:
                connection.close()
                if reused and replayable and not retried:
                    # A pooled connection the server closed while it sat
                    # idle: the request was never processed, retry it once
                    # on a fresh connection.
                    retried = True
                    continue
                raise
            except BaseException:
                connection.close()
                raise
            return (
                response.status,
                dict(response.getheaders()),
                _PooledResponse(self, connection, response),
            )

    def _acquire(self) -> tuple[http.client.HTTPConnection, bool]:
        if self._keepalive:
            with self._pool_lock:
                if self._idle:
                    return self._idle.pop(), True
        with self._pool_lock:
            self._connections_opened += 1
        return http.client.HTTPConnection(self._host, self._port, timeout=self._timeout), False

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        with self._pool_lock:
            if self._keepalive and not self._closed and len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def _json_request(self, method: str, path: str, **kwargs) -> dict:
        payload, _ = self._json_exchange(method, path, **kwargs)
        return payload

    def _json_exchange(self, method: str, path: str, **kwargs) -> tuple[dict, dict]:
        """Like :meth:`_json_request` but also returns the response headers."""
        status, headers, response = self._request(method, path, **kwargs)
        try:
            raw = response.read()
        finally:
            response.close()
        if status != 200:
            raise self._error(status, raw)
        try:
            return json.loads(raw), headers
        except json.JSONDecodeError:
            raise HTTPServiceError(status, f"non-JSON response body: {raw[:200]!r}") from None

    @staticmethod
    def _ingest_trace(headers: Mapping[str, str]) -> None:
        """Fold server-side spans from the trace response header into our trace.

        The server answers a traced request with its own spans serialized in
        the :data:`TRACE_RESPONSE_HEADER` header (the response *body* stays
        byte-identical with telemetry on or off).  No ambient tracer or no
        header means nothing to do; a malformed header is ignored — telemetry
        must never fail a successful request.
        """
        tracer = _current_tracer()
        if tracer is None:
            return
        raw = headers.get(TRACE_RESPONSE_HEADER)
        if not raw:
            return
        try:
            document = json.loads(raw)
            spans = document.get("spans", ())
        except (json.JSONDecodeError, AttributeError):
            return
        if isinstance(spans, list):
            tracer.ingest(spans)

    @staticmethod
    def _error(status: int, raw: bytes) -> HTTPServiceError:
        try:
            payload = json.loads(raw)
            message = payload.get("error", raw.decode("utf-8", "replace"))
        except (json.JSONDecodeError, AttributeError):
            payload, message = {}, raw.decode("utf-8", "replace")
        return HTTPServiceError(status, message, payload if isinstance(payload, dict) else {})
