"""The WSGI application exposing the protection service over HTTP.

Routes (all ids are ``[A-Za-z0-9._-]+`` path segments)::

    GET  /healthz                                     liveness, no auth
    GET  /metrics                                     counters, no auth
    GET  /status                                      vault-wide status   [admin]
    POST /tenants/{tenant}                            register + token    [admin]
    GET  /tenants/{tenant}/status                     tenant status       [tenant]
    POST /tenants/{tenant}/datasets/{ds}/protect      CSV in -> CSV out   [tenant]
    POST /tenants/{tenant}/datasets/{ds}/detect       CSV in -> JSON      [tenant]
    POST /tenants/{tenant}/datasets/{ds}/dispute      CSV in -> JSON      [tenant]
    POST /internal/detect-votes                       chunk -> votes      [admin]

``/internal/detect-votes`` is the worker half of distributed detection (see
:class:`~repro.service.runners.RemoteRunner` and docs/distributed.md): the
coordinator POSTs one raw CSV chunk plus a serialized watermarker spec and
frontier metadata (:mod:`repro.service.wire` shapes) and gets that chunk's
``DetectionVotes`` back — rows never leave the worker in the response, and
the vault is never consulted.  It is guarded like the other admin routes:
gated behind ``--admin-token`` when one is configured (the fleet secret),
open otherwise.  ``/metrics`` exposes the process's
:class:`~repro.service.http.metrics.ServiceMetrics` snapshot.

CSV request bodies stream: the server decodes the transfer framing
(``Content-Length`` or chunked) and sets ``wsgi.input_terminated``, the app
reads ``wsgi.input`` to EOF in blocks and spools the bytes to a temporary
file — protect needs two passes over its input and a socket can be read only
once.  Without ``wsgi.input_terminated`` a request body is refused with 500.
The protect response streams the protected CSV back with an
exact ``Content-Length`` and carries the JSON report (the same document
``repro protect --json`` prints) in the ``X-Repro-Report`` header, so one
round trip yields both artifacts without buffering either.

``detect`` accepts ``?workers=``, ``?runner=thread|process`` and
``?max_loss=`` query parameters — the HTTP spelling of the CLI flags.
``protect`` accepts ``?workers=`` and ``?runner=thread|process`` too (pass 2
runs on the named runner; ``remote`` is detect-only and is refused with 400).
Failures are uniform ``{"error": ...}`` JSON with 4xx/5xx statuses.

Telemetry (see docs/observability.md): a request carrying a valid
``X-Repro-Trace-Id`` header is traced — the app activates a tracer with the
caller's trace id, wraps handling in an ``http.request`` span, and returns
the collected spans to the caller.  Protect and detect return them in the
``X-Repro-Trace`` *response header* (the CSV/JSON bodies stay byte-identical
with tracing on or off); ``/internal/detect-votes`` returns them as the
``spans`` key of its JSON body, which the coordinator's ``RemoteRunner``
merges into the caller's trace.  ``GET /metrics?format=prometheus`` renders
the counters in Prometheus text exposition format (JSON stays the default).
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import time
from typing import Callable, Iterable, Iterator, Mapping
from urllib.parse import parse_qs

from repro.relational.io import CsvRecordError
from repro.service.api import ProtectionService
from repro.service.http.auth import AuthError, Authenticator
from repro.service.http.metrics import ServiceMetrics
from repro.service.reports import DEFAULT_MAX_LOSS, detect_report, dispute_report, error_payload
from repro.service.runners import RUNNER_NAMES, collect_raw_chunk
from repro.service.streaming import SPOOL_CHUNK_BYTES, spool_stream
from repro.service.vault import VaultError
from repro.service.wire import metadata_from_json, spec_from_json, votes_to_json
from repro.telemetry.log import log_event, tenant_hash
from repro.watermarking.ecc import resolve_code
from repro.telemetry.trace import (
    PARENT_HEADER,
    TRACE_HEADER,
    Tracer,
    activate as _activate,
    current_tracer as _current_tracer,
    is_valid_trace_id,
    span as _stage_span,
)

__all__ = ["ProtectionApp", "REPORT_HEADER", "TRACE_RESPONSE_HEADER"]

#: Response header carrying the protect report JSON alongside the CSV body.
REPORT_HEADER = "X-Repro-Report"

#: Response header carrying the server-side trace of a traced protect/detect
#: (the :meth:`~repro.telemetry.trace.Tracer.to_json` document), so response
#: bodies stay byte-identical with tracing on or off.
TRACE_RESPONSE_HEADER = "X-Repro-Trace"

#: Cap on spans shipped in the response — stdlib ``http.client`` refuses
#: header lines over 64 KiB, and ~150 span documents stay well under it.
TRACE_EXPORT_LIMIT = 150

#: The WSGI environ spellings of the trace propagation request headers.
_TRACE_ENVIRON = "HTTP_" + TRACE_HEADER.upper().replace("-", "_")
_PARENT_ENVIRON = "HTTP_" + PARENT_HEADER.upper().replace("-", "_")

_SEGMENT = r"[A-Za-z0-9._-]+"
_TENANT_ROUTE = re.compile(rf"^/tenants/(?P<tenant>{_SEGMENT})$")
_STATUS_ROUTE = re.compile(rf"^/tenants/(?P<tenant>{_SEGMENT})/status$")
_DATASET_ROUTE = re.compile(
    rf"^/tenants/(?P<tenant>{_SEGMENT})/datasets/(?P<dataset>{_SEGMENT})"
    r"/(?P<verb>protect|detect|dispute)$"
)

_STATUS_TEXT = {
    200: "200 OK",
    400: "400 Bad Request",
    401: "401 Unauthorized",
    403: "403 Forbidden",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    413: "413 Payload Too Large",
    500: "500 Internal Server Error",
}

#: TenantRecord fields a registration request body may set.
_REGISTRATION_PARAMS = (
    "encryption_key",
    "watermark_secret",
    "eta",
    "k",
    "epsilon",
    "mark_length",
    "copies",
    "metrics_depth",
    "ownership_tau",
    "max_mark_bit_errors",
    "code",
)


class _HTTPError(Exception):
    """Internal: aborts request handling with a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _FileBody:
    """A WSGI response iterable streaming a temp file, deleting it on close."""

    def __init__(self, path: str, *, block_size: int = SPOOL_CHUNK_BYTES) -> None:
        self._path = path
        self._block_size = block_size
        self._handle = open(path, "rb")

    def __iter__(self) -> Iterator[bytes]:
        while True:
            block = self._handle.read(self._block_size)
            if not block:
                return
            yield block

    def close(self) -> None:  # the WSGI server calls this after the last block
        self._handle.close()
        _unlink_quietly(self._path)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _iter_request_body(environ: Mapping[str, object]) -> Iterator[bytes]:
    """Stream the request body: ``wsgi.input`` read to EOF in blocks.

    The server owns transfer framing — the pre-fork server
    (:mod:`repro.service.http.prefork`) must decode ``Content-Length`` and
    chunked bodies itself to find where a pipelined request's body ends —
    and says so with the de-facto ``wsgi.input_terminated`` flag: the stream
    then yields exactly the payload bytes and EOFs at the body's end.  A
    server that does not set the flag may hand over raw framing or a stream
    that never EOFs, so the request is refused with a 500 instead.
    """
    if not environ.get("wsgi.input_terminated"):
        raise _HTTPError(
            500,
            "the WSGI server must set wsgi.input_terminated "
            "(decode the request body framing and EOF wsgi.input at the body's end)",
        )
    stream = environ["wsgi.input"]
    while True:
        block = stream.read(SPOOL_CHUNK_BYTES)
        if not block:
            return
        yield block


class ProtectionApp:
    """The WSGI callable wrapping one :class:`ProtectionService`.

    Thread-safe for threading WSGI servers: vault/claim writes are
    serialised as registry transactions, and the service's cached frameworks
    hold no dataset state, so protects and detects run concurrently.
    """

    def __init__(
        self,
        service: ProtectionService,
        *,
        admin_token: str | None = None,
        max_upload_bytes: int | None = None,
        spool_dir: str | None = None,
        logger: logging.Logger | None = None,
    ) -> None:
        self._service = service
        self._auth = Authenticator(service.vault, admin_token=admin_token)
        self._max_upload_bytes = max_upload_bytes
        self._spool_dir = spool_dir
        self._metrics = ServiceMetrics()
        #: Structured-event sink (``repro serve --log-json``); None = silent.
        self._logger = logger

    @property
    def service(self) -> ProtectionService:
        return self._service

    @property
    def metrics(self) -> ServiceMetrics:
        return self._metrics

    # ------------------------------------------------------------------- WSGI
    def __call__(self, environ: Mapping[str, object], start_response: Callable) -> Iterable[bytes]:
        tracer = self._request_tracer(environ)
        if tracer is None:
            return self._serve(environ, start_response)
        # The caller sent a valid trace id: collect this request's spans
        # under it.  The scope lands in environ so handlers that embed the
        # trace in the *response* can close the request span first (it would
        # otherwise still be open while the response headers are built).
        with _activate(tracer):
            scope = _stage_span(
                "http.request", method=str(environ.get("REQUEST_METHOD", "GET")).upper()
            )
            environ["repro.request_span"] = scope  # type: ignore[index]
            with scope:
                return self._serve(environ, start_response)

    def _serve(self, environ: Mapping[str, object], start_response: Callable) -> Iterable[bytes]:
        started = time.perf_counter()
        start_response = self._recording(environ, start_response)
        try:
            try:
                return self._route(environ, start_response)
            except AuthError as error:
                return _json_response(start_response, error.status, error_payload(error.message))
            except _HTTPError as error:
                return _json_response(start_response, error.status, error_payload(error.message))
            except VaultError as error:
                status = 409 if "already" in str(error) else 404
                return _json_response(start_response, status, error_payload(str(error)))
            except CsvRecordError as error:
                # The spooled upload's temp path is the server's business:
                # the client sees its own body's line.
                located = error.at_line(error.line, "request body")
                return _json_response(start_response, 400, error_payload(str(located)))
            except ValueError as error:
                return _json_response(start_response, 400, error_payload(str(error)))
            except Exception as error:  # noqa: BLE001 - the service must answer, not die
                return _json_response(
                    start_response,
                    500,
                    error_payload(f"internal error: {type(error).__name__}: {error}"),
                )
        finally:
            # Error paths included: tail latencies that omit failures lie.
            route = str(environ.get("repro.route", "unknown"))
            elapsed = time.perf_counter() - started
            self._metrics.observe_request(route, elapsed)
            log_event(
                self._logger,
                "http.request",
                route=route,
                method=str(environ.get("REQUEST_METHOD", "GET")).upper(),
                status=environ.get("repro.status"),
                duration_seconds=round(elapsed, 6),
            )

    def _recording(self, environ: Mapping[str, object], start_response: Callable) -> Callable:
        """Wrap *start_response* so every sent status lands in the metrics."""

        def wrapped(status: str, headers, exc_info=None):
            try:
                code = int(str(status).split(" ", 1)[0])
            except ValueError:
                code = None
            if code is not None:
                self._metrics.record_response(code)
                environ["repro.status"] = code  # type: ignore[index]
            if exc_info is not None:
                return start_response(status, headers, exc_info)
            return start_response(status, headers)

        return wrapped

    def _request_tracer(self, environ: Mapping[str, object]) -> Tracer | None:
        """A tracer adopting the caller's trace id, or None for untraced requests.

        Ids that fail validation are ignored rather than echoed into spans —
        a hostile header must not be able to inject content into telemetry.
        """
        trace_id = str(environ.get(_TRACE_ENVIRON, ""))
        if not is_valid_trace_id(trace_id):
            return None
        parent = str(environ.get(_PARENT_ENVIRON, ""))
        return Tracer(trace_id, parent_id=parent if is_valid_trace_id(parent) else None)

    def _trace_header_items(self, environ: Mapping[str, object]) -> list[tuple[str, str]]:
        """The ``X-Repro-Trace`` response header for a traced request, else []."""
        tracer = _current_tracer()
        if tracer is None:
            return []
        scope = environ.get("repro.request_span")
        if scope is not None:
            scope.done()
        document = tracer.to_json(limit=TRACE_EXPORT_LIMIT)
        return [(TRACE_RESPONSE_HEADER, json.dumps(document, separators=(",", ":")))]

    # ---------------------------------------------------------------- routing
    def _count(self, environ: Mapping[str, object], route: str) -> None:
        """Record the recognised route, and remember it for latency/logs."""
        environ["repro.route"] = route  # type: ignore[index]
        self._metrics.record_request(route)

    def _route(self, environ: Mapping[str, object], start_response: Callable) -> Iterable[bytes]:
        method = str(environ.get("REQUEST_METHOD", "GET")).upper()
        path = str(environ.get("PATH_INFO", "/")) or "/"

        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "healthz only answers GET")
            self._count(environ, "healthz")
            return _json_response(
                start_response, 200, {"status": "ok", "vault": self._service.vault.root}
            )

        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "metrics only answers GET")
            self._count(environ, "metrics")
            fmt = _str_param(_query(environ), "format") or "json"
            if fmt == "prometheus":
                return _text_response(
                    start_response,
                    200,
                    self._metrics.prometheus(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            if fmt != "json":
                raise _HTTPError(
                    400, f"unknown metrics format {fmt!r} (expected json or prometheus)"
                )
            return _json_response(start_response, 200, self._metrics.snapshot())

        if path == "/internal/detect-votes":
            if method != "POST":
                raise _HTTPError(405, "detect-votes only answers POST")
            self._count(environ, "detect_votes")
            return self._handle_detect_votes(environ, start_response)

        if path == "/status":
            if method != "GET":
                raise _HTTPError(405, "status only answers GET")
            self._count(environ, "status")
            self._auth.require_admin(environ)
            return _json_response(start_response, 200, self._service.status())

        match = _STATUS_ROUTE.match(path)
        if match:
            if method != "GET":
                raise _HTTPError(405, "tenant status only answers GET")
            self._count(environ, "tenant_status")
            tenant = match.group("tenant")
            self._auth.require_tenant(environ, tenant)
            return _json_response(start_response, 200, self._service.status(tenant))

        match = _TENANT_ROUTE.match(path)
        if match:
            if method != "POST":
                raise _HTTPError(405, "tenant registration only answers POST")
            self._count(environ, "register")
            return self._handle_register(environ, start_response, match.group("tenant"))

        match = _DATASET_ROUTE.match(path)
        if match:
            if method != "POST":
                raise _HTTPError(405, f"{match.group('verb')} only answers POST")
            tenant, dataset, verb = match.group("tenant", "dataset", "verb")
            self._count(environ, verb)
            self._auth.require_tenant(environ, tenant)
            handler = {
                "protect": self._handle_protect,
                "detect": self._handle_detect,
                "dispute": self._handle_dispute,
            }[verb]
            return handler(environ, start_response, tenant, dataset)

        # Unmatched paths still count — a flood of bad paths (a scanner, a
        # misconfigured client) must be visible in /metrics, not invisible
        # because routing never reached a record_request call.
        self._count(environ, "unknown")
        raise _HTTPError(404, f"no route for {method} {path}")

    # --------------------------------------------------------------- handlers
    def _handle_register(
        self, environ: Mapping[str, object], start_response: Callable, tenant: str
    ) -> Iterable[bytes]:
        self._auth.require_admin(environ)
        body = self._read_body(environ)
        params: dict = {}
        if body.strip():
            try:
                params = json.loads(body)
            except json.JSONDecodeError:
                raise _HTTPError(400, "registration body must be a JSON object") from None
            if not isinstance(params, dict):
                raise _HTTPError(400, "registration body must be a JSON object")
            unknown = sorted(set(params) - set(_REGISTRATION_PARAMS))
            if unknown:
                raise _HTTPError(400, f"unknown registration parameters: {', '.join(unknown)}")
        record = self._service.register_tenant(tenant, **params)
        token = self._service.vault.issue_token(tenant)
        return _json_response(
            start_response,
            200,
            {
                "tenant": record.tenant_id,
                "token": token,
                "eta": record.eta,
                "k": record.k,
                "mark_length": record.mark_length,
                "copies": record.copies,
            },
        )

    def _handle_protect(
        self, environ: Mapping[str, object], start_response: Callable, tenant: str, dataset: str
    ) -> Iterable[bytes]:
        query = _query(environ)
        chunk_size = _int_param(query, "chunk_size", minimum=1)
        workers = _int_param(query, "workers", minimum=1)
        runner = _str_param(query, "runner")
        if runner is not None and runner not in RUNNER_NAMES:
            # Includes ?runner=remote: the remote runner is detect-only.
            raise _HTTPError(
                400,
                f"unknown protect runner {runner!r} "
                f"(expected one of {', '.join(RUNNER_NAMES)}; remote is detect-only)",
            )
        upload = self._spool_upload(environ)
        output = self._temp_path("protected")
        started = time.perf_counter()
        try:
            outcome = self._service.protect(
                tenant,
                upload,
                output,
                dataset_id=dataset,
                chunk_size=chunk_size,
                workers=workers,
                runner=runner,
            )
        except BaseException:
            _unlink_quietly(output)
            raise
        finally:
            _unlink_quietly(upload)
        elapsed = time.perf_counter() - started
        self._metrics.record_protect(outcome.runner, outcome.rows, elapsed)
        log_event(
            self._logger,
            "protect.complete",
            tenant_hash=tenant_hash(tenant),
            rows=outcome.rows,
            runner=outcome.runner,
            duration_seconds=round(elapsed, 6),
        )
        report = json.dumps(outcome.to_json(), sort_keys=True)
        headers = [
            ("Content-Type", "text/csv; charset=utf-8"),
            ("Content-Length", str(os.path.getsize(output))),
            (REPORT_HEADER, report),
        ] + self._trace_header_items(environ)
        start_response(_STATUS_TEXT[200], headers)
        return _FileBody(output)

    def _handle_detect(
        self, environ: Mapping[str, object], start_response: Callable, tenant: str, dataset: str
    ) -> Iterable[bytes]:
        query = _query(environ)
        workers = _int_param(query, "workers", minimum=1)
        chunk_size = _int_param(query, "chunk_size", minimum=1)
        runner = _str_param(query, "runner")
        if runner is not None and runner not in RUNNER_NAMES:
            raise _HTTPError(
                400, f"unknown runner {runner!r} (expected one of {', '.join(RUNNER_NAMES)})"
            )
        max_loss = _float_param(query, "max_loss", default=DEFAULT_MAX_LOSS)
        expected_mark = _str_param(query, "expected_mark")
        code = _str_param(query, "code")
        if code is not None:
            try:
                resolve_code(code)
            except ValueError as error:
                raise _HTTPError(400, str(error)) from None
        upload = self._spool_upload(environ)
        started = time.perf_counter()
        try:
            outcome = self._service.detect(
                tenant,
                upload,
                dataset_id=dataset,
                workers=workers,
                runner=runner,
                chunk_size=chunk_size,
                code=code,
            )
        finally:
            _unlink_quietly(upload)
        elapsed = time.perf_counter() - started
        self._metrics.record_detect(outcome.runner, outcome.rows, elapsed)
        log_event(
            self._logger,
            "detect.complete",
            tenant_hash=tenant_hash(tenant),
            rows=outcome.rows,
            runner=outcome.runner,
            duration_seconds=round(elapsed, 6),
        )
        return _json_response(
            start_response,
            200,
            detect_report(outcome, expected_mark=expected_mark, max_loss=max_loss),
            extra_headers=self._trace_header_items(environ),
        )

    def _handle_detect_votes(
        self, environ: Mapping[str, object], start_response: Callable
    ) -> Iterable[bytes]:
        """The worker hop of distributed detection: one chunk in, its votes out.

        The request is one JSON document (:mod:`repro.service.wire` shapes):
        ``spec`` (watermarker reconstruction material), ``metadata`` (frontier
        node names, resolved against *this* service's trees), ``mark_length``
        and the raw CSV chunk as ``header`` + ``lines``.  Parsing and vote
        collection reuse :func:`repro.service.runners.collect_raw_chunk` — the
        exact code path the in-process runners execute — and engines are
        cached per spec across chunks, so a fleet worker behaves like one
        long-lived process-pool worker that happens to be on another machine.
        A record that does not parse is a 400 whose body adds ``line`` (its
        physical line in the chunk, the header being line 1) and ``reason``
        to ``error``.
        """
        self._auth.require_admin(environ)
        body = self._read_body(environ)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError:
            raise _HTTPError(400, "detect-votes body must be a JSON document") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "detect-votes body must be a JSON object")
        for name in ("spec", "metadata", "mark_length", "header", "lines"):
            if name not in payload:
                raise _HTTPError(400, f"detect-votes body lacks the {name!r} field")
        try:
            spec = spec_from_json(payload["spec"])
            metadata = metadata_from_json(payload["metadata"], self._service.trees)
            mark_length = int(payload["mark_length"])
        except (ValueError, TypeError) as error:
            raise _HTTPError(400, f"malformed detect-votes request: {error}") from None
        if mark_length < 1:
            raise _HTTPError(400, "mark_length must be at least 1")
        header, lines = payload["header"], payload["lines"]
        if not isinstance(header, str) or not isinstance(lines, list) or not all(
            isinstance(line, str) for line in lines
        ):
            raise _HTTPError(400, "header must be a string and lines a list of strings")
        started = time.perf_counter()
        try:
            rows, votes = collect_raw_chunk(
                spec, self._service.schema, metadata, header, lines, mark_length
            )
        except CsvRecordError as error:
            # A bad record also carries its chunk line (the header is line 1)
            # and reason, which the coordinator turns back into a
            # CsvRecordError at the record's line in the file it split.
            document = error_payload(f"chunk does not parse/collect: {error}")
            document.update(line=error.line, reason=error.reason)
            return _json_response(start_response, 400, document)
        except (ValueError, KeyError, TypeError) as error:
            # A chunk that cannot be parsed or collected is a *request* error
            # (bad CSV cell, metadata missing BinnedTable fields): it must
            # come back 4xx so the coordinator fails fast with the real
            # message instead of treating it as a dead worker and re-sending
            # the same bad chunk across the whole fleet.
            raise _HTTPError(400, f"chunk does not parse/collect: {error}") from None
        self._metrics.record_chunk(rows, time.perf_counter() - started)
        document = {"rows": rows, "votes": votes_to_json(votes)}
        tracer = _current_tracer()
        if tracer is not None:
            # Traced by the coordinator: ship this worker's spans back in the
            # body (an internal hop — the coordinator ingests them into its
            # trace and votes only on rows and votes).
            scope = environ.get("repro.request_span")
            if scope is not None:
                scope.done()
            document["spans"] = tracer.export(limit=TRACE_EXPORT_LIMIT)
        return _json_response(start_response, 200, document)

    def _handle_dispute(
        self, environ: Mapping[str, object], start_response: Callable, tenant: str, dataset: str
    ) -> Iterable[bytes]:
        upload = self._spool_upload(environ)
        try:
            verdict = self._service.dispute(tenant, upload, dataset_id=dataset)
        finally:
            _unlink_quietly(upload)
        return _json_response(start_response, 200, dispute_report(dataset, verdict))

    # ----------------------------------------------------------------- helpers
    def _read_body(self, environ: Mapping[str, object]) -> bytes:
        """The whole request body in memory, honouring the upload cap.

        Only for bounded JSON bodies (registration, detect-votes chunks —
        one chunk is ``chunk_size`` rows by construction); CSV uploads go
        through :meth:`_spool_upload` instead.
        """
        blocks: list[bytes] = []
        read = 0
        for block in _iter_request_body(environ):
            read += len(block)
            if self._max_upload_bytes is not None and read > self._max_upload_bytes:
                raise _HTTPError(
                    413, f"upload exceeds the configured limit of {self._max_upload_bytes} bytes"
                )
            blocks.append(block)
        return b"".join(blocks)

    def _spool_upload(self, environ: Mapping[str, object]) -> str:
        """The request body, spooled to a temp CSV (caller unlinks)."""
        path = self._temp_path("upload")
        try:
            written = spool_stream(
                _iter_request_body(environ), path, max_bytes=self._max_upload_bytes
            )
        except ValueError as error:  # the upload cap
            _unlink_quietly(path)
            raise _HTTPError(413, str(error)) from None
        except BaseException:
            _unlink_quietly(path)
            raise
        if written == 0:
            _unlink_quietly(path)
            raise _HTTPError(400, "empty request body (expected a CSV upload)")
        return path

    def _temp_path(self, kind: str) -> str:
        fd, path = tempfile.mkstemp(prefix=f"repro-http-{kind}-", suffix=".csv", dir=self._spool_dir)
        os.close(fd)
        return path


def _json_response(
    start_response: Callable,
    status: int,
    payload: dict,
    *,
    extra_headers: Iterable[tuple[str, str]] = (),
) -> Iterable[bytes]:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    start_response(
        _STATUS_TEXT.get(status, f"{status} Error"),
        [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]
        + list(extra_headers),
    )
    return [body]


def _text_response(
    start_response: Callable, status: int, text: str, *, content_type: str
) -> Iterable[bytes]:
    body = text.encode("utf-8")
    start_response(
        _STATUS_TEXT.get(status, f"{status} Error"),
        [("Content-Type", content_type), ("Content-Length", str(len(body)))],
    )
    return [body]


def _query(environ: Mapping[str, object]) -> dict[str, list[str]]:
    return parse_qs(str(environ.get("QUERY_STRING", "")), keep_blank_values=False)


def _str_param(query: dict[str, list[str]], name: str) -> str | None:
    values = query.get(name)
    return values[-1] if values else None


def _int_param(query: dict[str, list[str]], name: str, *, minimum: int) -> int | None:
    raw = _str_param(query, name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _HTTPError(400, f"query parameter {name!r} must be an integer") from None
    if value < minimum:
        raise _HTTPError(400, f"query parameter {name!r} must be >= {minimum}")
    return value


def _float_param(query: dict[str, list[str]], name: str, *, default: float) -> float:
    raw = _str_param(query, name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise _HTTPError(400, f"query parameter {name!r} must be a number") from None
