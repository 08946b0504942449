"""The repository benchmark: the real CLI and server, driven as subprocesses.

Run from the repository root::

    python3 perfbench/run.py --workload cli-50k --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

* ``cli-50k`` — cold ``repro protect``, ``detect``, ``dispute`` and
  ``vault status`` processes on a 50k-row CSV, every flag at its default.
* ``cli-50k-process`` — the same, with protect and detect on
  ``--runner process --workers 2`` (run by hand; not in ``BENCHMARK.json``).
* ``serve-1k-mixed`` — ``repro serve --processes 2`` driven by two
  closed-loop keep-alive clients with a fixed mix of small requests.

``--trace 0`` prints the end-to-end metrics of untraced runs.  ``--trace 1``
runs every measured command twice, untraced and through
``perfbench/traced_repro.py``, and prints per-layer metrics (see
:mod:`layers`) plus each verb's split of its wall time.  Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the sources under
``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

CLI_ROWS = 50_000
SERVE_ROWS = 1_000
#: The serve table and secrets are the same at every run; the seed draws the
#: request order.  At 1k rows both vary too much with the draw: binning loses
#: 6-9% of the information, and on some keys too few tuples are selected for
#: a clean detect to recover the whole mark.
SERVE_DATA_SEED = 0
#: One cli iteration (protect + detect + dispute + status at 50k rows) takes
#: about this long on the 2-core reference box; ``--seconds`` buys
#: ``ceil(seconds / ITERATION_SECONDS)`` iterations.  A traced run spends the
#: same time on half as many iterations, each run untraced and traced.
ITERATION_SECONDS = 7.0
#: Serve requests per second of ``--seconds``: a run sends a fixed count, so
#: the registry ends the same size at every run (a traced run sends half
#: untraced, half traced).
REQUESTS_PER_SECOND = 80
CLI_SETUP_REPEATS = 7
SERVE_SETUP_REPEATS = 3
#: A run still measuring after this many multiples of ``--seconds`` starts no
#: further iteration or request, so a slow phase of the host shortens the
#: run instead of stretching it.
DEADLINE_FACTOR = 1.25
ALTERED_SHARE = 0.3
DELETED_SHARE = 0.2
TENANT = "owner"
SERVE_PROCESSES = 2
CLIENTS = 2
#: One block of the serve mix: 1/8 protect, 1/2 detect, 5/16 status and
#: 1/16 dispute, shuffled per block from the seed.
MIX_BLOCK = ("protect",) * 2 + ("detect",) * 8 + ("status",) * 5 + ("dispute",)
DETECT_FIELDS = ("mark", "rows", "tuples_selected", "positions_with_votes", "coverage")

END_TO_END = {
    "setup_s": "s",
    "protect_s": "s",
    "detect_s": "s",
    "dispute_s": "s",
    "status_s": "s",
    "request_p90_s": "s",
    "requests_per_s": "1/s",
    "protect_rss_mb": "MB",
    "dispute_rss_mb": "MB",
    "information_loss": "fraction",
}
LAYER_NAMES = tuple(name for name, _ in layers.LAYERS)
PER_LAYER = {
    "process.import_s": "s",
    **{f"{name}_s": "s" for name in LAYER_NAMES},
    **{f"{name}_wall_s": "s" for name in LAYER_NAMES},
    "relational.rows_parsed": "count",
    "runners.worker_busy_s": "s",
    "runners.parallelism": "ratio",
    "runners.chunks": "count",
    "registry.reads": "count",
    "registry.writes": "count",
    "http.transport_s": "s",
    "unexplained_s": "s",
    "trace.overhead_share": "fraction",
    "trace.absent_targets": "count",
}
#: Failed requests miss every latency limit; this stands in for "never".
FAILED_LATENCY_S = 1e9


class SetupError(RuntimeError):
    """The program could not be brought to a state the workload can measure."""


# ----------------------------------------------------------------- processes
@dataclass
class Completed:
    seconds: float
    code: int
    rss_mb: float
    stdout: bytes
    trace_dir: str | None

    def payload(self) -> dict:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return {}


class Repro:
    """Starts ``repro`` commands as cold processes from the checkout's sources."""

    def __init__(self, root: str, work: str) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("REPRO_VAULT_BACKEND", None)  # nothing pins a backend
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )
        self._serial = itertools.count()
        self.live: list[subprocess.Popen] = []

    def argv(self, args: list[str], trace_dir: str | None) -> tuple[list[str], dict]:
        if trace_dir is None:
            return [sys.executable, "-m", "repro", *args], self.env
        env = dict(self.env, **{layers.TRACE_DIR_ENV: trace_dir})
        env["PERFBENCH_SPAWNED_AT"] = repr(time.time())
        return [sys.executable, os.path.join(HERE, "traced_repro.py"), *args], env

    def new_trace_dir(self) -> str:
        path = os.path.join(self.work, "trace", str(next(self._serial)))
        os.makedirs(path)
        return path

    def run(self, args: list[str], *, traced: bool = False) -> Completed:
        """One cold command: wall time from spawn to reap, peak RSS from ``wait4``."""
        trace_dir = self.new_trace_dir() if traced else None
        stderr_path = os.path.join(self.work, "stderr.log")
        argv, env = self.argv(args, trace_dir)
        started = time.perf_counter()
        with open(stderr_path, "ab") as stderr:
            process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)
        self.live.append(process)
        stdout = process.stdout.read()
        process.stdout.close()
        _, status, usage = os.wait4(process.pid, 0)
        seconds = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(process)
        return Completed(seconds, process.returncode, usage.ru_maxrss / 1024, stdout, trace_dir)

    def require(self, args: list[str]) -> Completed:
        done = self.run(args)
        if done.code != 0:
            raise SetupError(f"repro {' '.join(args[:2])} exited {done.code}")
        return done

    def kill_all(self) -> None:
        for process in list(self.live):
            if process.poll() is None:
                process.kill()
                process.wait()
        self.live.clear()


# -------------------------------------------------------------------- inputs
def generate(rows: int, seed: int, path: str) -> None:
    from repro.datagen.medical import generate_medical_table

    generate_medical_table(size=rows, seed=seed).to_csv(path)


def build_suspect(protected: str, suspect: str, seed: int) -> None:
    """Alter the non-identifier cells of 30% of the rows, then delete 20%.

    Altered cells take a value drawn from the same column of the protected
    file, as the paper's subset alteration attack does.
    """
    with open(protected, newline="", encoding="utf-8") as handle:
        header, *body = list(csv.reader(handle))
    rng = random.Random(f"suspect-{seed}")
    domains = [sorted({row[column] for row in body}) for column in range(len(header))]
    for index in rng.sample(range(len(body)), int(len(body) * ALTERED_SHARE)):
        for column in range(1, len(header)):
            body[index][column] = rng.choice(domains[column])
    deleted = set(rng.sample(range(len(body)), int(len(body) * DELETED_SHARE)))
    with open(suspect, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(row for index, row in enumerate(body) if index not in deleted)


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def flip_byte(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x01]))


def secrets_args(seed: int) -> list[str]:
    # Fixed secrets make every protect output reproducible from the seed.
    return ["--encryption-key", f"perfbench-ek-{seed}", "--watermark-secret", f"perfbench-ws-{seed}"]


# ----------------------------------------------------------------- recording
class Ops:
    """Operations attempted and failed, with each one's latency per verb."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def record(self, verb: str, seconds: float, problem: str | None) -> None:
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{verb}: {problem}")
                seconds = FAILED_LATENCY_S
            self.latencies.setdefault(verb, []).append(seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def median(self, verb: str) -> float:
        return statistics.median(self.latencies[verb])

    def all_latencies(self) -> list[float]:
        return [seconds for values in self.latencies.values() for seconds in values]


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class LayerTotals:
    """Per-layer totals of the traced commands, per verb."""

    def __init__(self) -> None:
        self.verbs: dict[str, dict] = {}
        self.walls: dict[str, float] = {}
        self.absent: set[str] = set()

    def add(self, verb: str, trace_dir: str, wall: float) -> None:
        merged = layers.merge(trace_dir)
        self.absent.update(merged["absent"])
        entry = self.verbs.setdefault(verb, {"import_s": 0.0, "layers": {}})
        entry["import_s"] += merged["import_s"]
        for layer, totals in merged["layers"].items():
            into = entry["layers"].setdefault(layer, dict.fromkeys(layers.FIELDS, 0))
            for field in layers.FIELDS:
                into[field] += totals[field]
        self.walls[verb] = self.walls.get(verb, 0.0) + wall

    def total(self, layer: str, field: str) -> float:
        return sum(entry["layers"].get(layer, {}).get(field, 0) for entry in self.verbs.values())

    def self_cpu(self, verb: str) -> float:
        return sum(totals["cpu_s"] for totals in self.verbs[verb]["layers"].values())


# ----------------------------------------------------------------- workloads
class Workload:
    def __init__(self, args: argparse.Namespace, root: str, work: str) -> None:
        self.args = args
        self.seed = args.seed
        self.traced = bool(args.trace)
        self.work = work
        self.repro = Repro(root, work)
        self.ops = Ops()
        self.totals = LayerTotals()
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.untraced_wall = 0.0
        self.traced_wall = 0.0
        #: Client-observed wall time of every request to the traced server.
        self.client_wall = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def close(self) -> None:
        self.repro.kill_all()


class CliWorkload(Workload):
    """Cold processes on a 50k-row CSV: protect, detect, dispute, status."""

    def __init__(self, args, root, work, runner_args: list[str], reference_runner_args: list[str]):
        super().__init__(args, root, work)
        self.runner_args = runner_args
        self.reference_runner_args = reference_runner_args

    def run(self) -> None:
        raw = self.path("raw.csv")
        generate(CLI_ROWS, self.seed, raw)
        setup = []
        vaults = []
        for index in range(CLI_SETUP_REPEATS):
            vault = self.path(f"vault-{index}")
            setup.append(self.repro.require(["vault", "init", vault, *secrets_args(self.seed), "--json"]).seconds)
            vaults.append(vault)
        # The reference output comes from the other runner, so every measured
        # protect is also checked against it across runners.
        reference = self.path("reference.csv")
        self.repro.require(
            ["protect", raw, reference, "--vault", vaults[0], "--dataset", "reference",
             *self.reference_runner_args, "--json"]
        )
        self.reference_sha = sha256_of(reference)
        self.suspect = self.path("suspect.csv")
        build_suspect(reference, self.suspect, self.seed)
        self.raw = raw
        self.vault = vaults[-1]

        iterations = math.ceil(self.args.seconds / ITERATION_SECONDS)
        if self.traced:
            iterations = math.ceil(iterations / 2)
        deadline = time.monotonic() + DEADLINE_FACTOR * self.args.seconds
        self.protect_rss: list[float] = []
        self.dispute_rss: list[float] = []
        self.information_loss: list[float] = []
        traced_ops = Ops()
        done = 0
        while done < max(1, iterations) and (done == 0 or time.monotonic() < deadline):
            self.iteration(f"u{done}", self.ops)
            if self.traced:
                self.iteration(f"t{done}", traced_ops)
            done += 1
        self.notes.append(f"{done} iterations of {CLI_ROWS} rows, {os.cpu_count()} cores")
        if self.traced:
            # The traced twins are not operations of the run, but their
            # outputs must be right too.
            for failure in traced_ops.failures:
                self.ops.record("traced", 0.0, failure)
            return
        latencies = self.ops
        self.metrics.update(
            setup_s=statistics.median(setup),
            protect_s=latencies.median("protect"),
            detect_s=latencies.median("detect"),
            dispute_s=latencies.median("dispute"),
            status_s=latencies.median("status"),
            request_p90_s=percentile(latencies.all_latencies(), 0.9),
            requests_per_s=(latencies.attempted - latencies.failed) / sum(latencies.all_latencies()),
            protect_rss_mb=statistics.median(self.protect_rss),
            dispute_rss_mb=statistics.median(self.dispute_rss),
            information_loss=statistics.median(self.information_loss),
        )

    def command(self, verb: str, args: list[str], traced: bool) -> Completed:
        done = self.repro.run(args, traced=traced)
        if traced:
            self.traced_wall += done.seconds
            self.totals.add(verb, done.trace_dir, done.seconds)
        else:
            self.untraced_wall += done.seconds
        return done

    def iteration(self, dataset: str, ops: Ops) -> None:
        traced = ops is not self.ops
        vault = ["--vault", self.vault, "--dataset", dataset]
        output = self.path(f"protected-{dataset}.csv")

        done = self.command(
            "protect", ["protect", self.raw, output, *vault, *self.runner_args, "--json"], traced
        )
        report = done.payload()
        if self.args.flip_byte and dataset == "u0":
            flip_byte(output)
        problem = None
        if done.code != 0:
            problem = f"exit {done.code}"
        elif sha256_of(output) != self.reference_sha:
            problem = "output differs from the reference protect (sha256)"
        ops.record("protect", done.seconds, problem)
        if not traced:
            self.protect_rss.append(done.rss_mb)
            self.information_loss.append(float(report.get("information_loss", 0.0)))

        done = self.command(
            "detect", ["detect", output, *vault, *self.runner_args, "--json"], traced
        )
        payload = done.payload()
        problem = None
        if done.code != 0:
            problem = f"exit {done.code}"
        elif payload.get("mark_loss") != 0 or payload.get("mark") != report.get("mark"):
            problem = f"clean detect lost the mark (mark_loss {payload.get('mark_loss')})"
        ops.record("detect", done.seconds, problem)
        os.remove(output)

        done = self.command("dispute", ["dispute", self.suspect, *vault, "--json"], traced)
        winner = done.payload().get("winner")
        problem = None if done.code == 0 and winner == TENANT else f"exit {done.code}, winner {winner!r}"
        ops.record("dispute", done.seconds, problem)
        if not traced:
            self.dispute_rss.append(done.rss_mb)

        done = self.command("status", ["vault", "status", self.vault, "--json"], traced)
        datasets = done.payload().get("tenants", {}).get(TENANT, {}).get("datasets", {})
        problem = None if done.code == 0 and dataset in datasets else f"exit {done.code}, dataset missing"
        ops.record("status", done.seconds, problem)


class Server:
    """One ``repro serve`` over a fresh vault, with pinned keep-alive clients."""

    def __init__(self, workload: "ServeWorkload", name: str, traced: bool) -> None:
        from repro.service.http.client import ServiceClient

        repro = workload.repro
        self.workload = workload
        self.client_wall = 0.0
        self.vault = workload.path(f"{name}-vault")
        repro.require(["vault", "init", self.vault, *secrets_args(SERVE_DATA_SEED), "--json"])
        token = repro.require(["vault", "token", self.vault, "--json"]).payload()["token"]
        self.trace_dir = repro.new_trace_dir() if traced else None
        argv, env = repro.argv(
            ["serve", "--vault", self.vault, "--port", "0",
             "--processes", str(SERVE_PROCESSES), "--json"],
            self.trace_dir,
        )
        with open(workload.path("serve-stderr.log"), "ab") as stderr:
            self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)
        repro.live.append(self.process)
        announced = ""
        while True:
            line = self.process.stdout.readline().decode("utf-8")
            if not line:
                raise SetupError("repro serve exited before announcing its url")
            announced += line
            try:
                url = json.loads(announced)["url"]
                break
            except ValueError:
                continue
        self.new_client = lambda: ServiceClient(url, token)
        self.clients = [self.new_client() for _ in range(CLIENTS)]
        self.pids: list[int | None] = [None] * CLIENTS
        self.opened = [0] * CLIENTS
        for slot in range(CLIENTS):
            self.pin(slot)

    def call(self, slot: int, method: str, *args):
        """One request on client *slot*; its wall time counts to the transport."""
        started = time.perf_counter()
        try:
            return getattr(self.clients[slot], method)(*args)
        finally:
            self.client_wall += time.perf_counter() - started

    def pin(self, slot: int) -> None:
        """Hold client *slot*'s connection on a pre-fork worker no other client uses.

        The kernel spreads keep-alive connections over the workers at random;
        two clients on one worker would halve the throughput of the run.
        """
        for _ in range(50):
            pid = self.call(slot, "metrics").get("server", {}).get("pid")
            if pid is None or pid not in self.pids[:slot] + self.pids[slot + 1:]:
                break
            self.clients[slot].close()
            self.clients[slot] = self.new_client()
        self.pids[slot] = pid
        self.opened[slot] = self.clients[slot].connections_opened

    def repin_if_reconnected(self, slot: int) -> None:
        if self.clients[slot].connections_opened != self.opened[slot]:
            self.pin(slot)

    def stop(self) -> float:
        """Drain the server; returns the peak RSS (MB) of its process tree."""
        for client in self.clients:
            client.close()
        self.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.process.kill()
            time.sleep(0.05)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.process.stdout.close()
        self.workload.repro.live.remove(self.process)
        return usage.ru_maxrss / 1024


class ServeWorkload(Workload):
    """A pre-fork server under a fixed mix of small requests from 2 clients."""

    def run(self) -> None:
        small = self.path("small.csv")
        generate(SERVE_ROWS, SERVE_DATA_SEED, small)
        self.small = small
        # Reference outputs from cold CLI commands on a vault with the same
        # secrets: served protects must match them byte for byte.
        reference_vault = self.path("reference-vault")
        self.repro.require(["vault", "init", reference_vault, *secrets_args(SERVE_DATA_SEED), "--json"])
        self.reference = self.path("reference.csv")
        vault = ["--vault", reference_vault, "--dataset", "reference"]
        self.repro.require(["protect", small, self.reference, *vault, "--json"])
        self.reference_sha = sha256_of(self.reference)
        detect = self.repro.require(["detect", self.reference, *vault, "--json"]).payload()
        self.reference_detect = {field: detect.get(field) for field in DETECT_FIELDS}

        count = self.args.seconds * REQUESTS_PER_SECOND // (2 if self.traced else 1)
        count = max(len(MIX_BLOCK), count)
        rng = random.Random(f"mix-{self.seed}")
        schedule: list[str] = []
        while len(schedule) < count:
            block = list(MIX_BLOCK)
            rng.shuffle(block)
            schedule.extend(block)
        self.schedule = schedule[:count]
        self.information_loss: list[float] = []

        setup = []
        repeats = 1 if self.traced else SERVE_SETUP_REPEATS
        for index in range(repeats):
            started = time.perf_counter()
            server = self.start(f"serve-{index}", traced=False)
            setup.append(time.perf_counter() - started)
            if index < repeats - 1:
                server.stop()
        elapsed = self.load(server, self.ops)
        rss = server.stop()
        self.untraced_wall = elapsed
        self.notes.append(
            f"{len(self.schedule)} requests over {CLIENTS} clients, {SERVE_ROWS}-row table, "
            f"{SERVE_PROCESSES} server processes, {os.cpu_count()} cores"
        )
        if self.traced:
            server = self.start("serve-traced", traced=True)
            traced_ops = Ops()
            self.traced_wall = self.load(server, traced_ops)
            server.stop()
            for failure in traced_ops.failures:
                self.ops.record("traced", 0.0, failure)
            # The server's totals cover every request it served, warm-up and
            # pinning included, so the split is of all its clients' wall time.
            self.client_wall = server.client_wall
            self.totals.add("request", server.trace_dir, server.client_wall)
            return
        ops = self.ops
        ok = ops.attempted - ops.failed
        self.metrics.update(
            setup_s=statistics.median(setup),
            protect_s=ops.median("protect"),
            detect_s=ops.median("detect"),
            dispute_s=ops.median("dispute"),
            status_s=ops.median("status"),
            request_p90_s=percentile(ops.all_latencies(), 0.9),
            requests_per_s=ok / elapsed,
            protect_rss_mb=rss,
            dispute_rss_mb=rss,
            information_loss=statistics.median(self.information_loss),
        )

    def start(self, name: str, traced: bool) -> Server:
        """Fresh vault, server up, one warm-up request per verb per worker."""
        server = Server(self, name, traced)
        for slot in range(CLIENTS):
            report = server.call(slot, "protect", TENANT, f"warm-{slot}", self.small, self.path("warm.csv"))
            self.expect(sha256_of(self.path("warm.csv")) == self.reference_sha, "warm-up protect output")
        for slot in range(CLIENTS):
            detect = server.call(slot, "detect", TENANT, "warm-0", self.reference)
            self.expect(self.detect_problem(detect) is None, "warm-up detect")
            server.call(slot, "status", TENANT)
            verdict = server.call(slot, "dispute", TENANT, "warm-0", self.reference)
            self.expect(verdict.get("winner") == TENANT, "warm-up dispute")
        self.information_loss.append(float(report.get("information_loss", 0.0)))
        return server

    @staticmethod
    def expect(condition: bool, what: str) -> None:
        if not condition:
            raise SetupError(f"{what} failed its check")

    def detect_problem(self, payload: dict) -> str | None:
        got = {field: payload.get(field) for field in DETECT_FIELDS}
        return None if got == self.reference_detect else f"detect payload {got} != {self.reference_detect}"

    def load(self, server: Server, ops: Ops) -> float:
        """Send the schedule over the pinned clients; returns the elapsed wall time."""
        from repro.service.http.client import HTTPServiceError

        counter = itertools.count()
        deadline = time.monotonic() + DEADLINE_FACTOR * self.args.seconds
        flip = [self.args.flip_byte]

        def client_loop(slot: int) -> None:
            output = self.path(f"served-{slot}.csv")
            for index in counter:
                if index >= len(self.schedule) or time.monotonic() > deadline:
                    return
                verb = self.schedule[index]
                started = time.perf_counter()
                try:
                    if verb == "protect":
                        report = server.call(slot, "protect", TENANT, f"load-{index}", self.small, output)
                    elif verb == "detect":
                        payload = server.call(slot, "detect", TENANT, "warm-0", self.reference)
                    elif verb == "status":
                        payload = server.call(slot, "status", TENANT)
                    else:
                        payload = server.call(slot, "dispute", TENANT, "warm-0", self.reference)
                except (HTTPServiceError, OSError) as error:
                    ops.record(verb, 0.0, f"{type(error).__name__}: {error}")
                    continue
                seconds = time.perf_counter() - started
                if verb == "protect":
                    if flip[0]:
                        flip[0] = False
                        flip_byte(output)
                    same = sha256_of(output) == self.reference_sha
                    problem = None if same else "output differs from the CLI reference (sha256)"
                    if same:
                        self.information_loss.append(float(report.get("information_loss", 0.0)))
                elif verb == "detect":
                    problem = self.detect_problem(payload)
                elif verb == "status":
                    problem = None if TENANT in payload.get("tenants", {}) else "tenant missing"
                else:
                    winner = payload.get("winner")
                    problem = None if winner == TENANT else f"winner {winner!r}"
                ops.record(verb, seconds, problem)
                server.repin_if_reconnected(slot)

        threads = [
            threading.Thread(target=client_loop, args=(slot,), daemon=True) for slot in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started


WORKLOADS = {
    "cli-50k": lambda args, root, work: CliWorkload(
        args, root, work, [], ["--runner", "process", "--workers", "2"]
    ),
    "cli-50k-process": lambda args, root, work: CliWorkload(
        args, root, work, ["--runner", "process", "--workers", "2"], []
    ),
    "serve-1k-mixed": ServeWorkload,
}


# ------------------------------------------------------------------- reports
def transport_seconds(workload: Workload) -> float:
    """Client-observed request time the server's WSGI app did not account for."""
    return workload.client_wall - workload.totals.total("http.app", "wall_incl_s")


def layer_metrics(workload: Workload) -> dict[str, float]:
    totals = workload.totals
    metrics: dict[str, float] = {
        "process.import_s": sum(entry["import_s"] for entry in totals.verbs.values())
    }
    for name in LAYER_NAMES:
        metrics[f"{name}_s"] = totals.total(name, "cpu_s")
        metrics[f"{name}_wall_s"] = totals.total(name, "wall_s")
    dispatch_wall = totals.total("runners.dispatch", "wall_incl_s")
    busy = totals.total("runners.task", "cpu_incl_s")
    wall = sum(totals.walls.values())
    metrics.update(
        {
            "relational.rows_parsed": totals.total("relational.row_parse", "rows")
            + totals.total("relational.chunk_parse", "rows"),
            "runners.worker_busy_s": busy,
            "runners.parallelism": busy / dispatch_wall if dispatch_wall else 0.0,
            "runners.chunks": totals.total("runners.task", "calls"),
            "registry.reads": totals.total("registry.read", "calls"),
            "registry.writes": totals.total("registry.write", "calls"),
            "http.transport_s": transport_seconds(workload),
            "unexplained_s": wall
            - metrics["process.import_s"]
            - sum(totals.self_cpu(verb) for verb in totals.verbs),
            "trace.overhead_share": workload.traced_wall / workload.untraced_wall - 1
            if workload.untraced_wall
            else 0.0,
            "trace.absent_targets": len(totals.absent),
        }
    )
    return metrics


def split_lines(workload: Workload) -> list[str]:
    """Each verb's wall time split over the layers' CPU self time, plus the rest."""
    totals = workload.totals
    lines = []
    for verb, entry in totals.verbs.items():
        wall = totals.walls[verb]
        label = "request time (sum over clients)" if verb == "request" else f"{verb}_s"
        lines.append(f"split of {label}: {wall:.4f} s over the traced commands")
        parts = [("process.import", entry["import_s"])]
        parts += sorted(
            ((layer, values["cpu_s"]) for layer, values in entry["layers"].items()),
            key=lambda part: -part[1],
        )
        if verb == "request":
            parts.append(("http.transport", transport_seconds(workload)))
        explained = sum(seconds for _, seconds in parts)
        parts.append(("unexplained", wall - explained))
        for layer, seconds in parts:
            lines.append(f"  {layer:<24} {seconds:9.4f} s {seconds / wall:7.1%}")
    for target in sorted(totals.absent):
        lines.append(f"absent wrapper target: {target} (its layer reads 0)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--flip-byte",
        action="store_true",
        help="flip one byte of the first protect output before it is checked "
        "(shows that the correctness checks catch it)",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"perfbench: no program sources at {src}/repro; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)

    def time_out(signum, frame):
        raise TimeoutError("benchmark run exceeded its time limit")

    signal.signal(signal.SIGALRM, time_out)
    signal.alarm(175)
    workload = WORKLOADS[args.workload](args, root, work)
    try:
        workload.run()
    except (SetupError, TimeoutError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {args.workload}: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    ops = workload.ops
    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(workload.notes))
    if args.trace:
        values = layer_metrics(workload)
        units = PER_LAYER
        for line in split_lines(workload):
            print(line)
    else:
        values = workload.metrics
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:14.6f} {unit}")
    print(f"  operations attempted {ops.attempted}, failed {ops.failed}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    correct = ops.failed == 0
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
