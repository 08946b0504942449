"""The default runner: processes for CSV files, inline when there is nothing to share.

With no runner named, every raw-CSV map — protect's two passes, detect and
dispute — runs on the process pool, except a one-chunk input or a one-worker
call, which runs in the calling thread without starting any pool.  Output
must equal the thread runner's byte for byte (protect) and field for field
(detect, dispute); only where the work runs may differ.
"""

import csv
import filecmp
import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService
from repro.service import runners as runners_module
from repro.service.executor import ShardExecutor
from repro.service.http import ProtectionApp
from repro.service.http.prefork import serve_worker_in_thread
from repro.service.streaming import DEFAULT_CHUNK_SIZE

ROWS = 2_500
CHUNK = 500


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    base = tmp_path_factory.mktemp("default-runner")
    raw = str(base / "raw.csv")
    generate_medical_table(size=ROWS, seed=41).to_csv(raw)
    vault = KeyVault.init(str(base / "vault"))
    # Fixed secrets and a dense mark (eta=10) keep every verdict below
    # independent of freshly drawn keys.
    ProtectionService(vault).register_tenant(
        "owner", k=10, eta=10, encryption_key="default-runner-ek", watermark_secret="default-runner-ws"
    )
    return {"base": base, "raw": raw, "vault": vault}


def _service(env, **kwargs):
    return ProtectionService(env["vault"], chunk_size=CHUNK, **kwargs)


def _no_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was constructed")

    monkeypatch.setattr(runners_module, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(runners_module, "ThreadPoolExecutor", refuse)


class TestDefaultEqualsThread:
    def test_protect_detect_dispute(self, env):
        default, thread = _service(env), _service(env, runner="thread")
        outcome = default.protect("owner", env["raw"], str(env["base"] / "d.csv"), dataset_id="d")
        assert outcome.runner == "process" and outcome.chunks == ROWS // CHUNK
        thread.protect("owner", env["raw"], str(env["base"] / "t.csv"), dataset_id="d")
        assert filecmp.cmp(env["base"] / "d.csv", env["base"] / "t.csv", shallow=False)

        suspect = str(env["base"] / "d.csv")
        by_default = default.detect("owner", suspect, dataset_id="d", workers=2).to_json()
        by_thread = thread.detect("owner", suspect, dataset_id="d", workers=2).to_json()
        assert by_default.pop("runner") == "process" and by_thread.pop("runner") == "thread"
        assert by_default == by_thread and by_default["mark_loss"] == 0.0

        assert default.dispute("owner", suspect, dataset_id="d") == thread.dispute(
            "owner", suspect, dataset_id="d"
        )


class TestNoPoolWhenNothingToShare:
    def test_one_chunk_input(self, env, tmp_path, monkeypatch):
        service = ProtectionService(env["vault"])  # default chunk size: one chunk
        _no_pools(monkeypatch)
        out = str(tmp_path / "out.csv")
        outcome = service.protect("owner", env["raw"], out, dataset_id="small", workers=2)
        assert outcome.chunks == 1 and outcome.runner == "process"
        detected = service.detect("owner", out, dataset_id="small", workers=2)
        assert detected.rows == ROWS and detected.mark_loss == 0.0
        assert service.dispute("owner", out, dataset_id="small").winner == "owner"

    def test_one_worker(self, env, tmp_path, monkeypatch):
        reference = str(tmp_path / "thread.csv")
        _service(env, runner="thread").protect("owner", env["raw"], reference, dataset_id="one")
        service = ProtectionService(env["vault"], executor=ShardExecutor(1), chunk_size=CHUNK)
        _no_pools(monkeypatch)
        out = str(tmp_path / "out.csv")
        outcome = service.protect("owner", env["raw"], out, dataset_id="one")
        assert outcome.chunks == ROWS // CHUNK and outcome.workers == 1
        assert filecmp.cmp(out, reference, shallow=False)
        assert service.detect("owner", out, dataset_id="one").mark_loss == 0.0
        assert service.dispute("owner", out, dataset_id="one").winner == "owner"

    def test_named_runner_keeps_its_pool(self, env, tmp_path, monkeypatch):
        """``runner="process"`` is honoured even on one chunk: the pool is built."""
        small = str(tmp_path / "small.csv")
        generate_medical_table(size=CHUNK - 100, seed=3).to_csv(small)
        _no_pools(monkeypatch)
        with pytest.raises(AssertionError, match="a pool was constructed"):
            _service(env).protect(
                "owner", small, str(tmp_path / "out.csv"), dataset_id="small", runner="process"
            )


#: label -> (runner, workers): every way a verb can run.  ``"remote"`` is a
#: 2-worker fleet: it detects, and its service protects and disputes on the
#: local default runner.
IDENTITY_RUNNERS = {
    "default": (None, 2),
    "thread": ("thread", 2),
    "process": ("process", 2),
    "one-worker": (None, 1),
    "fleet": ("remote", 2),
}


def _attacked(protected: str, path: str) -> str:
    """*protected* after a CSV-level alteration + deletion attack."""
    with open(protected, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    kept = [rows[0]]
    for index, row in enumerate(rows[1:]):
        if index % 10 < 3:  # subset deletion: drop 30%
            continue
        if index % 7 == 0:  # subset alteration: stomp a watermark column
            row[3] = "Dr-Stomped"
        kept.append(row)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(kept)
    return path


#: Small enough that a chunk size of 1 stays quick on a process pool.
MATRIX_ROWS = 150


@pytest.fixture(scope="module")
def fleet_urls(tmp_path_factory):
    """Two in-process ``repro serve`` workers over throwaway vaults."""
    base = tmp_path_factory.mktemp("matrix-fleet")
    servers = [
        serve_worker_in_thread(ProtectionApp(ProtectionService(KeyVault.init(str(base / name)))))
        for name in ("w1", "w2")
    ]
    yield [url for _, url in servers]
    for server, _ in servers:
        server.close()


class TestRunnerIdentityMatrix:
    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_SIZE])
    def test_every_runner_gives_the_same_outputs(
        self, tmp_path, chunk_size, fleet_urls, remote_runner
    ):
        """Protect bytes, clean and attacked detect reports and dispute verdicts agree."""
        raw = str(tmp_path / "raw.csv")
        generate_medical_table(size=MATRIX_ROWS, seed=43).to_csv(raw)
        observed = {}
        for label, (name, workers) in IDENTITY_RUNNERS.items():
            base = tmp_path / label
            base.mkdir()
            runner = remote_runner(fleet_urls) if name == "remote" else name
            service = ProtectionService(
                KeyVault.init(str(base / "vault")),
                executor=ShardExecutor(workers, runner=runner),
                chunk_size=chunk_size,
            )
            service.register_tenant(
                "owner",
                k=2,
                epsilon=0,
                eta=10,
                encryption_key="matrix-ek",
                watermark_secret="matrix-ws",
            )
            out = str(base / "protected.csv")
            service.protect("owner", raw, out, dataset_id="d")
            attacked = _attacked(out, str(base / "attacked.csv"))
            detects = [
                service.detect("owner", path, dataset_id="d").to_json() for path in (out, attacked)
            ]
            for report in detects:
                assert report.pop("runner") == ("process" if name is None else name)
                assert report.pop("shards") == workers
            with open(out, "rb") as handle:
                protect_sha256 = hashlib.sha256(handle.read()).hexdigest()
            observed[label] = {
                "protect_sha256": protect_sha256,
                "detect": detects,
                "dispute": [
                    service.dispute("owner", path, dataset_id="d") for path in (out, attacked)
                ],
            }
        reference = observed.pop("default")
        assert [report["rows"] for report in reference["detect"]] == [MATRIX_ROWS, 105]
        assert reference["dispute"][0].winner == "owner"
        for label, outputs in observed.items():
            assert outputs == reference, label


def _engine_cache_lock_is_free() -> bool:
    acquired = runners_module._WORKER_WATERMARKERS_LOCK.acquire(timeout=2)
    if acquired:
        runners_module._WORKER_WATERMARKERS_LOCK.release()
    return acquired


class TestForkedWorkers:
    def test_engine_cache_lock_is_not_inherited_held(self):
        """A worker forked while a parent thread holds the engine-cache lock can still use it."""
        context = multiprocessing.get_context("fork")
        with runners_module._WORKER_WATERMARKERS_LOCK:
            with ProcessPoolExecutor(1, mp_context=context) as pool:
                assert pool.submit(_engine_cache_lock_is_free).result(timeout=30)
