"""In-process request/throughput counters behind the ``/metrics`` endpoint.

A fleet of ``repro serve`` processes is only operable if each member can
answer "what have you been doing": the coordinator needs to see chunks
landing on every worker, and a single-box server needs request counts to
size itself.  :class:`ServiceMetrics` is the minimal, dependency-free
answer — monotonic counters and fixed-bucket latency histograms guarded by
one lock, snapshotted as a JSON document by ``GET /metrics`` and rendered
as Prometheus text exposition by ``GET /metrics?format=prometheus`` (no
auth, like ``/healthz``: the counters name routes and runners, never
tenants' data or tokens).

The JSON snapshot schema — **normalisation rule: every duration field is
seconds rounded to 6 decimal places** (micro-second precision; nothing in
this document mixes precisions)::

    uptime_seconds   float       seconds since process start
    requests         {route: count}          per recognised route, plus the
                                             "unknown" key counting 404s so
                                             a flood of bad paths is visible
    responses        {status: count}         per HTTP status actually sent
    detect           {"runners": {runner: {calls, rows, seconds}}, "rows": n}
    protect          {"runners": {runner: {calls, rows, seconds}}, "rows": n}
    worker_chunks    {chunks, rows, seconds}  the worker side of distributed
                                              detection (POST /internal/detect-votes)
    server           {host, pid, connections, queue_depth, queue_limit,
                      sheds, rate_limited} — the serving-layer story: which
                      process answered (``host``/``pid`` are stamped at
                      snapshot time, so they are correct after a pre-fork),
                      TCP connections accepted, the admission queue's
                      current depth and configured limit (``queue_limit``
                      is ``null`` until a serving worker reports one: an
                      app driven without a pre-fork worker, or a worker
                      built without ``metrics=``),
                      connections shed with 503, requests refused with 429
    latency          {"requests": {route: H}, "detect": {runner: H},
                      "protect": {runner: H}, "worker_chunks": H}
                     where H = {count, sum_seconds, p50_seconds,
                     p95_seconds, p99_seconds} from
                     :meth:`repro.telemetry.metrics.Histogram.snapshot`

Counters reset with the process; scrape-and-diff is the consumer's job.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import Counter, defaultdict

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricFamily,
    render_prometheus,
)

__all__ = ["ServiceMetrics", "SECONDS_PRECISION"]

#: Every ``*seconds`` field in the snapshot is rounded to this many decimal
#: places — the one normalisation rule for the whole document.
SECONDS_PRECISION = 6

_HOSTNAME = socket.gethostname()


class ServiceMetrics:
    """Thread-safe counters for one server process; ``snapshot()`` is the wire shape."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests: Counter = Counter()
        self._responses: Counter = Counter()
        self._detect: defaultdict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0])
        self._protect: defaultdict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0])
        self._chunks = [0, 0, 0.0]  # chunks, rows, seconds
        self._request_latency: defaultdict[str, Histogram] = defaultdict(
            lambda: Histogram(DEFAULT_LATENCY_BUCKETS)
        )
        self._detect_latency: defaultdict[str, Histogram] = defaultdict(
            lambda: Histogram(DEFAULT_LATENCY_BUCKETS)
        )
        self._protect_latency: defaultdict[str, Histogram] = defaultdict(
            lambda: Histogram(DEFAULT_LATENCY_BUCKETS)
        )
        self._chunk_latency = Histogram(DEFAULT_LATENCY_BUCKETS)
        # Serving-layer counters, filled in by the pre-fork worker handed
        # these metrics; they stay at rest (queue limit None) without one.
        self._connections = 0
        self._sheds = 0
        self._rate_limited = 0
        self._queue_depth = 0
        self._queue_limit: int | None = None

    # ------------------------------------------------------------- recording
    def record_request(self, route: str) -> None:
        with self._lock:
            self._requests[route] += 1

    def record_response(self, status: int) -> None:
        with self._lock:
            self._responses[str(status)] += 1

    def observe_request(self, route: str, seconds: float) -> None:
        """One served request's wall time, bucketed per route.

        Called once per request from the WSGI layer's ``finally`` — error
        responses are observed too, under whatever route was recognised
        (``"unknown"`` for 404s), so tail latencies include failures.
        """
        with self._lock:
            self._request_latency[route].observe(seconds)

    def record_detect(self, runner: str, rows: int, seconds: float) -> None:
        with self._lock:
            entry = self._detect[runner]
            entry[0] += 1
            entry[1] += rows
            entry[2] += seconds
            self._detect_latency[runner].observe(seconds)

    def record_protect(self, runner: str, rows: int, seconds: float) -> None:
        with self._lock:
            entry = self._protect[runner]
            entry[0] += 1
            entry[1] += rows
            entry[2] += seconds
            self._protect_latency[runner].observe(seconds)

    def record_chunk(self, rows: int, seconds: float) -> None:
        with self._lock:
            self._chunks[0] += 1
            self._chunks[1] += rows
            self._chunks[2] += seconds
            self._chunk_latency.observe(seconds)

    def record_connection(self) -> None:
        """One TCP connection accepted (many requests may follow on it)."""
        with self._lock:
            self._connections += 1

    def record_shed(self) -> None:
        """One connection refused with 503 because the admission queue was full."""
        with self._lock:
            self._sheds += 1

    def record_rate_limited(self) -> None:
        """One request refused with 429 by the per-tenant token bucket."""
        with self._lock:
            self._rate_limited += 1

    def record_queue(self, depth: int, limit: int) -> None:
        """The admission queue's current depth and configured limit."""
        with self._lock:
            self._queue_depth = int(depth)
            self._queue_limit = int(limit)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """The JSON document described in the module docstring.

        All duration fields follow the one normalisation rule:
        seconds rounded to :data:`SECONDS_PRECISION` decimal places.
        """

        def timing(entry: list[float], first_key: str) -> dict:
            return {
                first_key: int(entry[0]),
                "rows": int(entry[1]),
                "seconds": round(entry[2], SECONDS_PRECISION),
            }

        with self._lock:
            return {
                "uptime_seconds": round(time.monotonic() - self._started, SECONDS_PRECISION),
                "requests": dict(sorted(self._requests.items())),
                "responses": dict(sorted(self._responses.items())),
                "detect": {
                    "runners": {
                        runner: timing(entry, "calls")
                        for runner, entry in sorted(self._detect.items())
                    },
                    "rows": int(sum(entry[1] for entry in self._detect.values())),
                },
                "protect": {
                    "runners": {
                        runner: timing(entry, "calls")
                        for runner, entry in sorted(self._protect.items())
                    },
                    "rows": int(sum(entry[1] for entry in self._protect.values())),
                },
                "worker_chunks": timing(self._chunks, "chunks"),
                # host/pid stamped per snapshot, not per construction: after a
                # pre-fork every worker inherits the same object but must
                # answer with its own identity.
                "server": {
                    "host": _HOSTNAME,
                    "pid": os.getpid(),
                    "connections": self._connections,
                    "queue_depth": self._queue_depth,
                    "queue_limit": self._queue_limit,
                    "sheds": self._sheds,
                    "rate_limited": self._rate_limited,
                },
                "latency": {
                    "requests": {
                        route: histogram.snapshot(precision=SECONDS_PRECISION)
                        for route, histogram in sorted(self._request_latency.items())
                    },
                    "detect": {
                        runner: histogram.snapshot(precision=SECONDS_PRECISION)
                        for runner, histogram in sorted(self._detect_latency.items())
                    },
                    "protect": {
                        runner: histogram.snapshot(precision=SECONDS_PRECISION)
                        for runner, histogram in sorted(self._protect_latency.items())
                    },
                    "worker_chunks": self._chunk_latency.snapshot(
                        precision=SECONDS_PRECISION
                    ),
                },
            }

    def prometheus(self) -> str:
        """The same counters in Prometheus text exposition format.

        Rendered under the lock from the live structures (no snapshot
        round-tripping), so a scrape is one lock acquisition.
        """
        identity = {"host": _HOSTNAME, "pid": str(os.getpid())}
        with self._lock:
            families = [
                MetricFamily(
                    "repro_uptime_seconds",
                    "gauge",
                    "Seconds since this server process started.",
                    [({}, time.monotonic() - self._started)],
                ),
                MetricFamily(
                    "repro_server_info",
                    "gauge",
                    "Identity of the process answering this scrape (pre-fork: one per worker).",
                    [(identity, 1)],
                ),
                MetricFamily(
                    "repro_connections_total",
                    "counter",
                    "TCP connections accepted by this worker (keep-alive: many requests each).",
                    [({}, self._connections)],
                ),
                MetricFamily(
                    "repro_queue_depth",
                    "gauge",
                    "Connections waiting in this worker's admission queue right now.",
                    [({}, self._queue_depth)],
                ),
                MetricFamily(
                    "repro_queue_limit",
                    "gauge",
                    "Configured admission-queue limit (0 = no serving worker has reported one).",
                    [({}, self._queue_limit or 0)],
                ),
                MetricFamily(
                    "repro_queue_sheds_total",
                    "counter",
                    "Connections shed with 503 because the admission queue was full.",
                    [({}, self._sheds)],
                ),
                MetricFamily(
                    "repro_rate_limited_total",
                    "counter",
                    "Requests refused with 429 by the per-tenant token bucket.",
                    [({}, self._rate_limited)],
                ),
                MetricFamily(
                    "repro_requests_total",
                    "counter",
                    "Requests per recognised route (unknown = unmatched path).",
                    [({"route": route}, count) for route, count in sorted(self._requests.items())],
                ),
                MetricFamily(
                    "repro_responses_total",
                    "counter",
                    "Responses per HTTP status sent.",
                    [({"status": status}, count) for status, count in sorted(self._responses.items())],
                ),
                MetricFamily(
                    "repro_detect_rows_total",
                    "counter",
                    "Rows examined by detect, per runner.",
                    [({"runner": runner}, entry[1]) for runner, entry in sorted(self._detect.items())],
                ),
                MetricFamily(
                    "repro_protect_rows_total",
                    "counter",
                    "Rows protected, per runner.",
                    [({"runner": runner}, entry[1]) for runner, entry in sorted(self._protect.items())],
                ),
                MetricFamily(
                    "repro_worker_chunk_rows_total",
                    "counter",
                    "Rows served over POST /internal/detect-votes.",
                    [({}, self._chunks[1])],
                ),
                MetricFamily(
                    "repro_request_duration_seconds",
                    "histogram",
                    "Wall time per served request, by route.",
                    [
                        ({"route": route}, histogram)
                        for route, histogram in sorted(self._request_latency.items())
                    ],
                ),
                MetricFamily(
                    "repro_detect_duration_seconds",
                    "histogram",
                    "Wall time per detect call, by runner.",
                    [
                        ({"runner": runner}, histogram)
                        for runner, histogram in sorted(self._detect_latency.items())
                    ],
                ),
                MetricFamily(
                    "repro_protect_duration_seconds",
                    "histogram",
                    "Wall time per protect call, by runner.",
                    [
                        ({"runner": runner}, histogram)
                        for runner, histogram in sorted(self._protect_latency.items())
                    ],
                ),
                MetricFamily(
                    "repro_worker_chunk_duration_seconds",
                    "histogram",
                    "Wall time per detect-votes chunk served.",
                    [({}, self._chunk_latency)],
                ),
            ]
            return render_prometheus(families)
