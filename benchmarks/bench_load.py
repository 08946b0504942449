"""Closed-loop load benchmark: mixed tenant traffic against the pre-fork server.

A fleet of concurrent tenants hammers one server with the real traffic mix —
``protect`` uploads, ``detect`` round trips and ``status`` polls — each
client looping over a keep-alive :class:`ServiceClient` (closed loop: a
client issues its next request the moment the previous answer lands).  Per
phase the harness records p50/p99 latency and the aggregate rows/s, and it
re-asserts the serving-layer invariants *under concurrency*:

* every protected CSV that comes back is **byte-identical** to the
  in-process reference protect;
* every detect report is **bit-identical** to the in-process reference;
* no response is a 5xx other than deliberate ``503`` load sheds.

The server is a real ``repro serve`` subprocess with ``--processes``
workers sharing the port via ``SO_REUSEPORT`` and keep-alive connections
(``REPRO_LOAD_PROCESSES``, default CPU count capped at 4).  Knobs:
``REPRO_LOAD_CLIENTS`` (default 6), ``REPRO_LOAD_OPS`` (requests per
client, default 4), ``REPRO_LOAD_PROCESSES``.  The dataset is
``min(REPRO_BENCH_SIZE, 1200)`` rows — serving concurrency is what is being
measured, not table size.

Run standalone for a plain-text sweep::

    PYTHONPATH=src python benchmarks/bench_load.py
    REPRO_LOAD_CLIENTS=32 PYTHONPATH=src python benchmarks/bench_load.py

or through pytest-benchmark (what CI's ``load-smoke`` and ``perf-gate``
jobs run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_load.py --benchmark-json=BENCH_load.json
"""

from __future__ import annotations

import filecmp
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService
from repro.service.http import HTTPServiceError, ServiceClient

#: Serving concurrency is the subject; a big table would just drown the
#: latency signal in parse time.
MAX_LOAD_ROWS = 1_200

#: Fields a detect payload must match against the in-process reference for
#: the report to count as bit-identical (floats round-trip JSON exactly).
DETECT_IDENTITY_FIELDS = (
    "mark",
    "rows",
    "tuples_selected",
    "positions_with_votes",
    "coverage",
    "mark_loss",
)


def _load_clients() -> int:
    return int(os.environ.get("REPRO_LOAD_CLIENTS", 6))


def _load_ops() -> int:
    return int(os.environ.get("REPRO_LOAD_OPS", 4))


def _load_processes() -> int:
    default = min(4, os.cpu_count() or 1)
    return int(os.environ.get("REPRO_LOAD_PROCESSES", default))


def _table_rows() -> int:
    from conftest import bench_table_size

    return max(200, min(bench_table_size(), MAX_LOAD_ROWS))


# ------------------------------------------------------------------ workload
@dataclass
class LoadEnv:
    """One vault + protected dataset + in-process reference artifacts."""

    base: str
    vault_dir: str
    raw_csv: str
    protected_csv: str
    reference_detect: dict
    token: str
    rows: int


def build_env(base: str, rows: int) -> LoadEnv:
    raw_csv = os.path.join(base, "raw.csv")
    protected_csv = os.path.join(base, "protected.csv")
    generate_medical_table(size=rows, seed=2005).to_csv(raw_csv)
    vault_dir = os.path.join(base, "vault")
    vault = KeyVault.init(vault_dir)
    service = ProtectionService(vault)
    service.register_tenant("owner", k=20, eta=50, epsilon=5)
    token = vault.issue_token("owner")
    service.protect("owner", raw_csv, protected_csv, dataset_id="reference")
    outcome = service.detect("owner", protected_csv, dataset_id="reference")
    reference = {name: getattr(outcome, name) for name in DETECT_IDENTITY_FIELDS}
    return LoadEnv(
        base=base,
        vault_dir=vault_dir,
        raw_csv=raw_csv,
        protected_csv=protected_csv,
        reference_detect=reference,
        token=token,
        rows=rows,
    )


@dataclass
class LoadResult:
    """What one closed-loop run produced."""

    elapsed: float
    latencies: dict = field(default_factory=dict)  # phase -> [seconds]
    statuses: Counter = field(default_factory=Counter)
    rows_processed: int = 0
    errors: list = field(default_factory=list)
    protect_outputs: list = field(default_factory=list)
    detect_payloads: list = field(default_factory=list)

    @property
    def rows_per_second(self) -> float:
        return self.rows_processed / self.elapsed if self.elapsed else 0.0

    def percentile(self, quantile: float, phase: str | None = None) -> float:
        values = sorted(
            value
            for name, series in self.latencies.items()
            if phase is None or name == phase
            for value in series
        )
        if not values:
            return 0.0
        index = min(len(values) - 1, int(round(quantile * (len(values) - 1))))
        return values[index]

    def unexpected_5xx(self) -> list[int]:
        """5xx statuses other than deliberate 503 load sheds."""
        return [
            status
            for status, count in self.statuses.items()
            if status >= 500 and status != 503 and count
        ]


def _op_phase(op_index: int) -> str:
    """The deterministic traffic mix: 1/8 protect, 1/2 detect, rest status."""
    if op_index % 8 == 0:
        return "protect"
    if op_index % 2 == 1:
        return "detect"
    return "status"


def run_load(env: LoadEnv, url: str, *, clients: int, ops_per_client: int) -> LoadResult:
    """Closed-loop: *clients* concurrent tenant sessions, each a keep-alive client."""
    result = LoadResult(elapsed=0.0)
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def session(client_index: int) -> None:
        client = ServiceClient(url, env.token)
        outputs, payloads, timings, statuses, failures, rows = [], [], [], [], [], 0
        barrier.wait()
        for op_index in range(ops_per_client):
            phase = _op_phase(op_index)
            started = time.perf_counter()
            try:
                if phase == "protect":
                    out = os.path.join(env.base, f"load-{client_index}-{op_index}.csv")
                    client.protect(
                        "owner", f"load-{client_index}-{op_index}", env.raw_csv, out
                    )
                    outputs.append(out)
                    rows += env.rows
                elif phase == "detect":
                    payloads.append(
                        client.detect("owner", "reference", env.protected_csv)
                    )
                    rows += env.rows
                else:
                    client.status("owner")
                statuses.append(200)
            except HTTPServiceError as error:
                statuses.append(error.status)
            except Exception as error:  # noqa: BLE001 - tally, the main thread asserts
                failures.append(repr(error))
            timings.append((phase, time.perf_counter() - started))
        client.close()
        with lock:
            result.protect_outputs.extend(outputs)
            result.detect_payloads.extend(payloads)
            result.statuses.update(statuses)
            result.errors.extend(failures)
            result.rows_processed += rows
            for phase, seconds in timings:
                result.latencies.setdefault(phase, []).append(seconds)

    threads = [
        threading.Thread(target=session, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    result.elapsed = time.perf_counter() - started
    return result


def assert_load_invariants(env: LoadEnv, result: LoadResult) -> None:
    """Identity and cleanliness bars every load run must clear."""
    assert not result.errors, f"transport errors under load: {result.errors[:3]}"
    assert not result.unexpected_5xx(), f"unexpected 5xx: {dict(result.statuses)}"
    for out in result.protect_outputs:
        assert filecmp.cmp(out, env.protected_csv, shallow=False), (
            f"protect output {out} not byte-identical under load"
        )
    for payload in result.detect_payloads:
        for name in DETECT_IDENTITY_FIELDS:
            assert payload[name] == env.reference_detect[name], (
                f"detect field {name} diverged under load: "
                f"{payload[name]!r} != {env.reference_detect[name]!r}"
            )


# ------------------------------------------------------------------- servers
def start_prefork(vault_dir: str, processes: int) -> tuple[subprocess.Popen, str]:
    """A real ``repro serve`` subprocess; returns ``(process, url)``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--vault", vault_dir,
         "--port", "0", "--processes", str(processes), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    buffer, depth = "", 0
    while True:  # --json pretty-prints one document; read to brace balance
        char = proc.stdout.read(1)
        if not char:
            raise RuntimeError(f"repro serve died: {proc.stderr.read()}")
        buffer += char
        depth += {"{": 1, "}": -1}.get(char, 0)
        if depth == 0 and buffer.strip():
            return proc, json.loads(buffer)["url"]


def stop_prefork(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    return code


# --------------------------------------------------------------------- pytest
@pytest.fixture(scope="module")
def load_env(tmp_path_factory) -> LoadEnv:
    return build_env(str(tmp_path_factory.mktemp("load")), _table_rows())


def test_load_prefork_closed_loop(benchmark, load_env):
    """The gated number: mixed traffic against the pre-fork server, rows/s."""
    from conftest import run_once

    proc, url = start_prefork(load_env.vault_dir, _load_processes())
    try:
        result = run_once(
            benchmark,
            run_load,
            load_env,
            url,
            clients=_load_clients(),
            ops_per_client=_load_ops(),
        )
    finally:
        code = stop_prefork(proc)
    assert code == 0, "pre-fork server did not drain cleanly on SIGTERM"
    assert_load_invariants(load_env, result)
    sheds = result.statuses.get(503, 0)
    benchmark.extra_info.update(
        {
            "rows": load_env.rows,
            "clients": _load_clients(),
            "processes": _load_processes(),
            "rows_per_second": round(result.rows_per_second),
            "sheds_503": sheds,
            "p50_seconds": round(result.percentile(0.50), 6),
            "p99_seconds": round(result.percentile(0.99), 6),
            "p99_detect_seconds": round(result.percentile(0.99, "detect"), 6),
            "p99_status_seconds": round(result.percentile(0.99, "status"), 6),
        }
    )


# ----------------------------------------------------------------- standalone
def _standalone() -> None:
    rows = _table_rows()
    clients_sweep = [int(c) for c in os.environ.get("REPRO_LOAD_SWEEP", "4,8").split(",")]
    ops = _load_ops()
    with tempfile.TemporaryDirectory() as base:
        env = build_env(base, rows)
        print(f"closed-loop load: {rows} rows, {ops} ops/client, mixed protect/detect/status")
        print(f"{'clients':>8} {'rows/s':>10} {'p50 ms':>9} {'p99 ms':>9} {'503s':>5}")
        for clients in clients_sweep:
            proc, url = start_prefork(env.vault_dir, _load_processes())
            result = run_load(env, url, clients=clients, ops_per_client=ops)
            assert stop_prefork(proc) == 0
            assert_load_invariants(env, result)
            print(
                f"{clients:>8} {result.rows_per_second:>10.0f} "
                f"{result.percentile(0.5) * 1e3:>9.1f} "
                f"{result.percentile(0.99) * 1e3:>9.1f} "
                f"{result.statuses.get(503, 0):>5}"
            )


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    _standalone()
