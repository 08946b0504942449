"""Stdlib-only HTTP frontend over the :class:`~repro.service.api.ProtectionService`.

PR 2 made protection durable across *processes*; this package makes it
operable across *machines*: a WSGI application (no third-party dependencies
— the pre-fork server below serves it; another WSGI server can if it sets
``wsgi.input_terminated``) exposing the service's five verbs with streaming
CSV bodies and per-tenant bearer-token auth backed by the
:class:`~repro.service.vault.KeyVault`:

* :mod:`repro.service.http.app` — the WSGI application: routing, upload
  spooling, streaming download, JSON bodies matching the CLI's
  ``--json`` shapes, plus the ``/internal/detect-votes`` worker endpoint of
  distributed detection;
* :mod:`repro.service.http.auth` — ``Authorization: Bearer`` validation
  against the vault's token digests (401 missing / 403 wrong);
* :mod:`repro.service.http.metrics` — the per-process counters behind
  ``GET /metrics`` (request/response counts, rows, per-runner timings);
* :mod:`repro.service.http.prefork` — the one serving layer: a pre-fork
  multi-process server (``SO_REUSEPORT`` port sharing, HTTP/1.1 keep-alive,
  bounded admission queue with 503 sheds, per-tenant rate limiting,
  graceful SIGTERM drain) behind the ``repro serve`` entry point, plus
  :func:`~repro.service.http.prefork.serve_worker_in_thread`, one in-process
  worker for tests, benchmarks and embedders;
* :mod:`repro.service.http.client` — the stdlib client the CLI's ``--url``
  mode drives (chunked uploads via :mod:`http.client`, streamed downloads,
  pooled keep-alive connections with one transparent stale retry) and the
  :class:`~repro.service.runners.RemoteRunner` posts chunks with.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ProtectionApp": ".app",
        "ServiceClient": ".client",
        "HTTPServiceError": ".client",
        "ServiceMetrics": ".metrics",
        "HTTPWorker": ".prefork",
        "PreForkServer": ".prefork",
        "RateLimiter": ".prefork",
    },
)
