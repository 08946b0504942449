"""Chunk-parallel executor: detect over a CSV is bit-identical to the serial path."""

import pytest

from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.service import runners as runners_module
from repro.service.executor import ShardExecutor
from repro.watermarking.hierarchical import HierarchicalWatermarker


class TestBinnedSlice:
    def test_slices_cover_the_rows_and_share_metadata(self, protected_small):
        binned = protected_small.watermarked
        cuts = [0, 400, 800, 1100, len(binned.table)]
        pieces = [binned.slice(start, stop) for start, stop in zip(cuts, cuts[1:])]
        assert [row for piece in pieces for row in piece.table] == binned.table.rows
        assert pieces[0].trees is binned.trees
        assert pieces[1].ultimate_nodes == binned.ultimate_nodes

    def test_mutation_through_slice_does_not_leak(self, protected_small):
        binned = protected_small.watermarked
        piece = binned.slice(0, 400)
        original = dict(binned.table.rows[0])
        piece.table.mutable_row(0)["zip_code"] = "poisoned"
        assert binned.table.rows[0] == original


class TestProtectedCsvRoundTrip:
    def test_protected_table_parses_back_cell_for_cell(self, protected_small, tmp_path):
        """What the CSV detect tests rest on: the runners parse what the table holds."""
        from repro.relational.table import Table

        table = protected_small.watermarked.table
        path = str(tmp_path / "protected.csv")
        table.to_csv(path)
        rebuilt = Table.from_csv(path, table.schema)
        assert list(rebuilt.rows) == [
            {name: row[name] for name in table.schema.column_names} for row in table
        ]


def _detection_equal(left, right):
    return (
        left.mark.bits == right.mark.bits
        and left.wmd_bits == right.wmd_bits
        and left.positions_with_votes == right.positions_with_votes
        and left.tuples_selected == right.tuples_selected
        and left.cells_read == right.cells_read
        and left.votes_cast == right.votes_cast
    )


class TestChunkParallelDetect:
    @pytest.fixture(scope="class")
    def watermarker(self, protection_framework):
        return HierarchicalWatermarker(protection_framework.watermark_key, copies=4)

    def test_clean_table_bit_identical(self, watermarker, protected_small, detect_via_csv):
        binned = protected_small.watermarked
        serial = watermarker.detect(binned, 20)
        executor = ShardExecutor(4, runner="thread")
        for chunk_size in (1, 7, 250, 10_000):
            parallel = detect_via_csv(executor, watermarker, binned, 20, chunk_size=chunk_size)
            assert _detection_equal(serial, parallel)

    def test_attacked_tables_bit_identical(self, watermarker, protected_small, detect_via_csv):
        executor = ShardExecutor(2)
        for attack in (
            SubsetAlterationAttack(0.4, seed=3),
            SubsetDeletionAttack(0.3, seed=5, mode=DeletionMode.RANDOM),
        ):
            attacked = attack.run(protected_small.watermarked).attacked
            serial = watermarker.detect(attacked, 20)
            parallel = detect_via_csv(executor, watermarker, attacked, 20, chunk_size=300)
            assert _detection_equal(serial, parallel)

    def test_one_worker_runs_inline(
        self, watermarker, protected_small, detect_via_csv, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was constructed")

        monkeypatch.setattr(runners_module, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(runners_module, "ThreadPoolExecutor", refuse)
        binned = protected_small.watermarked
        assert _detection_equal(
            watermarker.detect(binned, 20),
            detect_via_csv(ShardExecutor(1), watermarker, binned, 20, chunk_size=250),
        )

    @pytest.mark.parametrize("runner", [None, "thread", "process"])
    def test_header_only_file(self, watermarker, protected_small, detect_via_csv, runner):
        empty = protected_small.watermarked.slice(0, 0)
        report = detect_via_csv(ShardExecutor(2, runner=runner), watermarker, empty, 20)
        assert report.tuples_selected == 0 and len(report.mark) == 20
        assert report.coverage == 0.0

    def test_chunks_are_read_lazily(
        self, watermarker, protected_small, detect_via_csv, monkeypatch
    ):
        """The file must not be split ahead of the workers (bounded window)."""
        pulled = []
        seen_at_first_collect = []
        split, collect = runners_module.iter_raw_chunks, runners_module.collect_raw_chunk

        def counting_split(path, chunk_size):
            for chunk in split(path, chunk_size):
                pulled.append(chunk)
                yield chunk

        def tracking_collect(*args, **kwargs):
            if not seen_at_first_collect:
                seen_at_first_collect.append(len(pulled))
            return collect(*args, **kwargs)

        monkeypatch.setattr(runners_module, "iter_raw_chunks", counting_split)
        monkeypatch.setattr(runners_module, "collect_raw_chunk", tracking_collect)
        executor = ShardExecutor(2, runner="thread")
        binned = protected_small.watermarked
        report = detect_via_csv(executor, watermarker, binned, 20, chunk_size=125)
        # With a bounded window only ~max_workers+1 chunks may be split off
        # before the first one is processed — never all twelve.
        assert len(pulled) == 12
        assert seen_at_first_collect[0] <= executor.max_workers + 1
        assert _detection_equal(watermarker.detect(binned, 20), report)


class TestPaperScaleAcceptance:
    """Bit-identical at 20k rows on four threads and on a process pool."""

    @pytest.fixture(scope="class")
    def workload_20k(self):
        from repro.experiments.config import ExperimentConfig, build_workload

        return build_workload(ExperimentConfig(table_size=20_000, seed=2005, k=20, eta=50))

    @pytest.mark.parametrize("runner, workers", [("thread", 4), (None, 2)])
    def test_clean_and_attacked_20k(self, workload_20k, detect_via_csv, runner, workers):
        config = workload_20k.config
        watermarker = HierarchicalWatermarker(
            workload_20k.framework.watermark_key,
            copies=config.effective_copies(len(workload_20k.trees)),
        )
        clean = workload_20k.protected.watermarked
        attacked = SubsetAlterationAttack(0.3, seed=7).run(clean).attacked
        executor = ShardExecutor(workers, runner=runner)
        for table in (clean, attacked):
            serial = watermarker.detect(table, config.mark_length)
            parallel = detect_via_csv(
                executor, watermarker, table, config.mark_length, chunk_size=5_000
            )
            assert _detection_equal(serial, parallel)
