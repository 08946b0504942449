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
                    batch=True,
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


class TestProcessRunnerBitIdentity:
    """The acceptance bar: ProcessRunner == ThreadRunner == serial, bit for bit."""

    def test_clean_table(self, watermarker, protected_small):
        binned = protected_small.watermarked
        serial = watermarker.detect(binned, 20)
        thread = ShardExecutor(4, runner="thread").detect(watermarker, binned, 20, shards=5)
        process = ShardExecutor(2, runner="process").detect(watermarker, binned, 20, shards=5)
        assert _detection_equal(serial, thread)
        assert _detection_equal(serial, process)

    def test_attacked_table(self, watermarker, protected_small):
        attacked = SubsetAlterationAttack(0.4, seed=3).run(protected_small.watermarked).attacked
        serial = watermarker.detect(attacked, 20)
        process = ShardExecutor(2, runner="process").detect(watermarker, attacked, 20, shards=4)
        assert _detection_equal(serial, process)

    def test_empty_table(self, watermarker, protected_small):
        empty = protected_small.watermarked.slice(0, 0)
        report = ShardExecutor(2, runner="process").detect(watermarker, empty, 20, shards=4)
        assert report.tuples_selected == 0 and len(report.mark) == 20
        assert report.coverage == 0.0


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

    def test_worker_processes_see_identical_votes(self, watermarker, protected_small):
        """collect_tables ships pickled shards; votes come back unchanged."""
        pieces = [protected_small.watermarked.slice(0, 300), protected_small.watermarked.slice(300, 700)]
        thread_votes = list(
            ThreadRunner().collect_tables(watermarker, pieces, 20, max_workers=2)
        )
        process_votes = list(
            ProcessRunner().collect_tables(watermarker, pieces, 20, max_workers=2)
        )
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
