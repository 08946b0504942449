"""The default runner: processes for CSV files, inline when there is nothing to share.

With no runner named, every raw-CSV map — protect's two passes, detect and
dispute — runs on the process pool, except a one-chunk input or a one-worker
call, which runs in the calling thread without starting any pool.  Output
must equal the thread runner's byte for byte (protect) and field for field
(detect, dispute); only where the work runs may differ.
"""

import filecmp
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService
from repro.service import runners as runners_module
from repro.service.executor import ShardExecutor
from repro.watermarking.hierarchical import HierarchicalWatermarker

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


class TestInMemoryShardsStayOnThreads:
    def test_detect_builds_no_process_pool(self, protection_framework, protected_small, monkeypatch):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(runners_module, "ProcessPoolExecutor", refuse)
        binned = protected_small.watermarked
        report = ShardExecutor(2).detect(watermarker, binned, 20, shards=2)
        assert report.mark == watermarker.detect(binned, 20).mark


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
