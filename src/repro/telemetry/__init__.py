"""Dependency-free telemetry: tracing, latency histograms, structured logs.

Three stdlib-only modules wired through every layer of the service:

* :mod:`repro.telemetry.trace` — :class:`~repro.telemetry.trace.Span` /
  :class:`~repro.telemetry.trace.Tracer` with contextvar-scoped trace/span
  IDs, wall + CPU timing, and a picklable/JSON wire form so spans recorded
  inside process-pool workers and on remote fleet members travel back to the
  coordinator of one request.
* :mod:`repro.telemetry.metrics` — fixed-bucket
  :class:`~repro.telemetry.metrics.Histogram` (p50/p95/p99 derivable) and the
  Prometheus text-exposition renderer behind ``GET /metrics?format=prometheus``.
* :mod:`repro.telemetry.log` — opt-in structured JSON logging that stamps
  every record with trace/span/tenant-hash and never logs cell values,
  identifiers, secrets, or tokens.

The cardinal rule: telemetry off is a near-free no-op (one contextvar read
per instrumented stage) and never changes output bytes — byte/bit-identity
of protect/detect results with tracing on is asserted by the test suite.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Span": ".trace",
        "Tracer": ".trace",
        "TraceContext": ".trace",
        "TRACE_HEADER": ".trace",
        "PARENT_HEADER": ".trace",
        "span": ".trace",
        "activate": ".trace",
        "adopt": ".trace",
        "capture": ".trace",
        "current_tracer": ".trace",
        "format_span_tree": ".trace",
        "Histogram": ".metrics",
        "DEFAULT_LATENCY_BUCKETS": ".metrics",
        "render_prometheus": ".metrics",
        "JsonLogFormatter": ".log",
        "configure_json_logging": ".log",
        "log_event": ".log",
        "redact_fields": ".log",
        "tenant_hash": ".log",
    },
)
