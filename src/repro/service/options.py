"""What the command line names and catches before any verb runs.

The CLI builds its whole parser and its ``main``'s error handling on every
invocation, so the runner names, the serving defaults and the two remote
transport errors live here, in a module that imports nothing.  Their users
(:mod:`repro.service.runners`, :mod:`repro.service.http.prefork`,
:mod:`repro.service.http.client`) import them from here and re-export them,
so a cold ``repro vault status`` never compiles the data path to print its
``--help`` choices.
"""

from __future__ import annotations

__all__ = [
    "RUNNER_NAMES",
    "REMOTE_RUNNER_NAME",
    "DEFAULT_KEEPALIVE_SECONDS",
    "DEFAULT_MAX_REQUESTS_PER_CONNECTION",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_HANDLER_THREADS",
    "FleetError",
    "HTTPServiceError",
]

#: The local runners a caller may name (``--runner``, ``?runner=``).
RUNNER_NAMES = ("thread", "process")

#: The detect-only runner that ships chunks to a ``repro serve`` fleet.
REMOTE_RUNNER_NAME = "remote"

#: Idle seconds before a kept-alive connection is closed.
DEFAULT_KEEPALIVE_SECONDS = 75.0

#: Requests served on one connection before the server closes it (bounds the
#: damage of per-connection state leaks and rebalances REUSEPORT load).
DEFAULT_MAX_REQUESTS_PER_CONNECTION = 1000

#: Accepted-but-unhandled connections allowed to wait per worker; beyond it
#: new arrivals are shed with ``503 Retry-After``.
DEFAULT_QUEUE_LIMIT = 64

#: Handler threads per worker — the concurrent-connection bound.
DEFAULT_HANDLER_THREADS = 16


class FleetError(RuntimeError):
    """Every worker of a remote fleet failed to serve a chunk (after retries)."""


class HTTPServiceError(RuntimeError):
    """A non-2xx response from the protection frontend."""

    def __init__(self, status: int, message: str, payload: dict | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.payload = payload or {}
