"""Pluggable shard runners: thread and process paths bit-identical to serial."""

import os

import pytest

from repro.attacks.alteration import SubsetAlterationAttack
from repro.service.executor import ShardExecutor
from repro.service.runners import (
    DefaultRunner,
    ProcessRunner,
    ThreadRunner,
    WatermarkerSpec,
    resolve_runner,
)
from repro.watermarking.hierarchical import HierarchicalWatermarker


def _detection_equal(left, right):
    return (
        left.mark.bits == right.mark.bits
        and left.wmd_bits == right.wmd_bits
        and left.positions_with_votes == right.positions_with_votes
        and left.tuples_selected == right.tuples_selected
        and left.cells_read == right.cells_read
        and left.votes_cast == right.votes_cast
    )


def _suspect_metadata(binned):
    """The detect metadata of *binned*, as ``collect_csv`` takes it."""
    fields = ("trees", "identifying_columns", "quasi_columns", "ultimate_nodes", "maximal_nodes")
    return {name: getattr(binned, name) for name in fields}


@pytest.fixture(scope="module")
def watermarker(protection_framework):
    return HierarchicalWatermarker(protection_framework.watermark_key, copies=4)


class TestResolveRunner:
    def test_names_and_default(self):
        assert isinstance(resolve_runner(None), DefaultRunner)
        assert resolve_runner(None).name == "process"
        assert isinstance(resolve_runner("thread"), ThreadRunner)
        assert isinstance(resolve_runner("process"), ProcessRunner)

    def test_instance_passthrough(self):
        runner = ProcessRunner()
        assert resolve_runner(runner) is runner

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown runner"):
            resolve_runner("gpu")


class TestWatermarkerSpec:
    def test_roundtrip_rebuilds_equivalent_engine(self, watermarker, protected_small):
        spec = WatermarkerSpec.of(watermarker)
        rebuilt = spec.build()
        assert rebuilt.key == watermarker.key
        assert rebuilt.copies == watermarker.copies
        assert _detection_equal(
            watermarker.detect(protected_small.watermarked, 20),
            rebuilt.detect(protected_small.watermarked, 20),
        )

    def test_spec_is_picklable_and_hashable(self, watermarker):
        import pickle

        spec = WatermarkerSpec.of(watermarker)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, WatermarkerSpec.of(watermarker)}) == 1

    def test_worker_watermarker_cache_is_bounded(self):
        """Long-lived fleet workers must not retain every spec's key material."""
        from repro.service.runners import (
            _WORKER_WATERMARKER_CACHE_SIZE,
            _WORKER_WATERMARKERS,
            _worker_watermarker,
        )
        from repro.watermarking.keys import WatermarkKey

        before = dict(_WORKER_WATERMARKERS)
        try:
            _WORKER_WATERMARKERS.clear()
            specs = [
                WatermarkerSpec(
                    k1=bytes([index]) * 16,
                    k2=bytes([index + 1]) * 16,
                    eta=25,
                    columns=None,
                    copies=4,
                    level_weighting=True,
                )
                for index in range(_WORKER_WATERMARKER_CACHE_SIZE + 5)
            ]
            for spec in specs:
                engine = _worker_watermarker(spec)
                assert engine.key == WatermarkKey(k1=spec.k1, k2=spec.k2, eta=spec.eta)
            assert len(_WORKER_WATERMARKERS) == _WORKER_WATERMARKER_CACHE_SIZE
            # Oldest entries evicted, newest retained and reused.
            assert specs[0] not in _WORKER_WATERMARKERS
            assert _worker_watermarker(specs[-1]) is _WORKER_WATERMARKERS[specs[-1]]
        finally:
            _WORKER_WATERMARKERS.clear()
            _WORKER_WATERMARKERS.update(before)


class TestSharedEngineCache:
    def test_concurrent_thread_detects_under_eviction(self, protected_small, tmp_path):
        """Thread detects share the engine cache with eviction in flight; every report holds.

        More threads than cores, a tiny switch interval and more specs than
        the cache holds, so engines are built, hit and evicted while other
        threads are mid-detect.
        """
        import sys
        import threading

        from repro.service.runners import _WORKER_WATERMARKER_CACHE_SIZE, _WORKER_WATERMARKERS
        from repro.watermarking.keys import WatermarkKey

        binned = protected_small.watermarked.slice(0, 600)
        path = str(tmp_path / "suspect.csv")
        binned.table.to_csv(path)
        metadata = _suspect_metadata(binned)
        keys = [
            WatermarkKey.from_secret(f"cache-stress-{index}", eta=25)
            for index in range(_WORKER_WATERMARKER_CACHE_SIZE + 3)
        ]
        engines = [HierarchicalWatermarker(key, copies=4) for key in keys]
        serial = [engine.detect(binned, 20) for engine in engines]
        threads_count = 2 * (os.cpu_count() or 1) + 2
        results: dict[tuple[int, int], object] = {}
        failures: list[BaseException] = []

        def run(thread_index):
            try:
                executor = ShardExecutor(2, runner="thread")
                for step in range(len(engines)):
                    index = (thread_index + step) % len(engines)
                    results[thread_index, index] = executor.detect_csv(
                        engines[index], path, binned.table.schema, metadata, 20, chunk_size=100
                    )
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        before = dict(_WORKER_WATERMARKERS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _WORKER_WATERMARKERS.clear()
            threads = [
                threading.Thread(target=run, args=(index,), daemon=True)
                for index in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            _WORKER_WATERMARKERS.clear()
            _WORKER_WATERMARKERS.update(before)
        assert not failures
        assert len(results) == threads_count * len(engines)
        for (_, index), report in results.items():
            assert _detection_equal(serial[index], report)


class TestProcessRunnerBitIdentity:
    """The acceptance bar: ProcessRunner == ThreadRunner == serial, bit for bit."""

    def test_clean_table(self, watermarker, protected_small, detect_via_csv):
        binned = protected_small.watermarked
        serial = watermarker.detect(binned, 20)
        thread = detect_via_csv(
            ShardExecutor(4, runner="thread"), watermarker, binned, 20, chunk_size=300
        )
        process = detect_via_csv(
            ShardExecutor(2, runner="process"), watermarker, binned, 20, chunk_size=300
        )
        assert _detection_equal(serial, thread)
        assert _detection_equal(serial, process)

    def test_attacked_table(self, watermarker, protected_small, detect_via_csv):
        attacked = SubsetAlterationAttack(0.4, seed=3).run(protected_small.watermarked).attacked
        serial = watermarker.detect(attacked, 20)
        process = detect_via_csv(
            ShardExecutor(2, runner="process"), watermarker, attacked, 20, chunk_size=375
        )
        assert _detection_equal(serial, process)


class TestServiceRunnerSelection:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.datagen.medical import generate_medical_table
        from repro.service import KeyVault, ProtectionService

        base = tmp_path_factory.mktemp("runner-svc")
        raw = str(base / "raw.csv")
        out = str(base / "protected.csv")
        generate_medical_table(size=1500, seed=17).to_csv(raw)
        service = ProtectionService(KeyVault.init(str(base / "vault")), chunk_size=400)
        service.register_tenant("owner", k=10, eta=20)
        service.protect("owner", raw, out, dataset_id="d")
        return service, out

    def test_csv_detect_identical_across_runners(self, served):
        service, out = served
        serial = service.detect("owner", out, dataset_id="d", workers=1)
        thread = service.detect("owner", out, dataset_id="d", workers=4, runner="thread")
        process = service.detect("owner", out, dataset_id="d", workers=2, runner="process")
        for outcome in (thread, process):
            assert outcome.mark == serial.mark
            assert outcome.rows == serial.rows
            assert outcome.tuples_selected == serial.tuples_selected
            assert outcome.positions_with_votes == serial.positions_with_votes
        assert thread.runner == "thread" and process.runner == "process"
        assert process.mark_loss == 0.0

    def test_service_level_runner_default(self, served):
        service, out = served
        from repro.service import KeyVault, ProtectionService

        process_service = ProtectionService(
            KeyVault(service.vault.root), runner="process", chunk_size=400
        )
        outcome = process_service.detect("owner", out, dataset_id="d")
        assert outcome.runner == "process"
        assert outcome.mark_loss == 0.0

    def test_worker_processes_see_identical_votes(self, watermarker, protected_small, tmp_path):
        """collect_csv ships raw chunks; per-chunk votes and row counts agree."""
        binned = protected_small.watermarked
        path = str(tmp_path / "suspect.csv")
        binned.table.to_csv(path)
        metadata = _suspect_metadata(binned)

        def collect(runner):
            rows = []
            votes = list(
                runner.collect_csv(
                    watermarker,
                    path,
                    binned.table.schema,
                    metadata,
                    20,
                    chunk_size=700,
                    max_workers=2,
                    on_rows=rows.append,
                )
            )
            return rows, votes

        thread_rows, thread_votes = collect(ThreadRunner())
        process_rows, process_votes = collect(ProcessRunner())
        assert thread_rows == process_rows == [700, 700, 100]
        assert [votes.votes for votes in thread_votes] == [votes.votes for votes in process_votes]
        assert [votes.tuples_selected for votes in thread_votes] == [
            votes.tuples_selected for votes in process_votes
        ]


class TestExecutorRunnerWiring:
    def test_runner_name_surface(self):
        assert ShardExecutor(2).runner_name == "process"
        assert ShardExecutor(2, runner="thread").runner_name == "thread"
        assert ShardExecutor(2, runner="process").runner_name == "process"
        assert os.cpu_count() is not None  # sanity for the workers default


class TestAdversarialCsvParity:
    def test_quoted_newline_suspect_parses_identically(self, tmp_path):
        """An attacker-edited CSV with quoted newlines: both runners agree."""
        import csv

        from repro.datagen.medical import generate_medical_table
        from repro.service import KeyVault, ProtectionService

        base = tmp_path
        raw = str(base / "raw.csv")
        out = str(base / "protected.csv")
        generate_medical_table(size=600, seed=23).to_csv(raw)
        service = ProtectionService(KeyVault.init(str(base / "vault")), chunk_size=100)
        service.register_tenant("owner", k=10, eta=20)
        service.protect("owner", raw, out, dataset_id="d")

        # The "attack": rewrite some doctor cells to contain quoted newlines.
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        for index, row in enumerate(rows[1:], start=1):
            if index % 7 == 0:
                row[3] = f"Dr\nInjected-{index}"
        suspect = str(base / "suspect.csv")
        with open(suspect, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)

        thread = service.detect("owner", suspect, dataset_id="d", workers=2, runner="thread", chunk_size=97)
        process = service.detect("owner", suspect, dataset_id="d", workers=2, runner="process", chunk_size=97)
        assert process.rows == thread.rows == 600
        assert process.mark == thread.mark
        assert process.tuples_selected == thread.tuples_selected
        assert process.positions_with_votes == thread.positions_with_votes


def _with_bad_age(source: str, target: str, line: int) -> str:
    """*source* with the ``age`` cell on physical *line* set to ``not-an-age``."""
    with open(source, encoding="utf-8") as handle:
        lines = handle.readlines()
    age = lines[0].rstrip("\r\n").split(",").index("age")
    cells = lines[line - 1].split(",")
    cells[age] = "not-an-age"
    lines[line - 1] = ",".join(cells)
    with open(target, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return target


class TestLocatedDetectFailures:
    def test_every_runner_names_the_file_and_line(self, tmp_path):
        """A bad suspect cell fails alike on every runner, wherever its chunk ran."""
        from repro.datagen.medical import generate_medical_table
        from repro.relational.io import CsvRecordError
        from repro.service import KeyVault, ProtectionService

        raw = str(tmp_path / "raw.csv")
        generate_medical_table(size=2_500, seed=17).to_csv(raw)
        # Line 1,457 is data row 1,456: the third 500-row chunk.
        bad = _with_bad_age(raw, str(tmp_path / "bad.csv"), 1_457)
        service = ProtectionService(KeyVault.init(str(tmp_path / "vault")), chunk_size=500)
        service.register_tenant("owner", k=10, eta=20)
        messages = {}
        for label, runner, workers in (
            ("inline", None, 1),
            ("default", None, 2),
            ("thread", "thread", 2),
            ("process", "process", 2),
        ):
            with pytest.raises(CsvRecordError) as caught:
                service.detect("owner", bad, dataset_id="ref", runner=runner, workers=workers)
            messages[label] = str(caught.value)
        expected = (
            f"{bad}, line 1457: column 'age': could not convert string to float: 'not-an-age'"
        )
        assert messages == dict.fromkeys(messages, expected)

