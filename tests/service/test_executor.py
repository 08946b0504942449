"""Shard-parallel executor: bit-identical to the serial batched path."""

import pytest

from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.service.executor import ShardExecutor, shard_binned, shard_spans
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.mark import random_mark


class TestShardSpans:
    def test_covers_range_contiguously(self):
        spans = shard_spans(1003, 4)
        assert spans[0][0] == 0 and spans[-1][1] == 1003
        assert all(prev[1] == cur[0] for prev, cur in zip(spans, spans[1:]))
        assert {stop - start for start, stop in spans} <= {250, 251}

    def test_fewer_rows_than_shards(self):
        assert shard_spans(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_and_invalid(self):
        assert shard_spans(0, 4) == []
        with pytest.raises(ValueError):
            shard_spans(10, 0)


class TestShardBinned:
    def test_shards_cover_the_rows_and_share_metadata(self, protected_small):
        binned = protected_small.watermarked
        pieces = shard_binned(binned, 4)
        assert sum(len(piece.table) for piece in pieces) == len(binned.table)
        assert [row for piece in pieces for row in piece.table] == binned.table.rows
        assert pieces[0].trees is binned.trees
        assert pieces[1].ultimate_nodes == binned.ultimate_nodes

    def test_mutation_through_shard_does_not_leak(self, protected_small):
        binned = protected_small.watermarked
        piece = shard_binned(binned, 4)[0]
        original = dict(binned.table.rows[0])
        piece.table.mutable_row(0)["zip_code"] = "poisoned"
        assert binned.table.rows[0] == original


def _detection_equal(left, right):
    return (
        left.mark.bits == right.mark.bits
        and left.wmd_bits == right.wmd_bits
        and left.positions_with_votes == right.positions_with_votes
        and left.tuples_selected == right.tuples_selected
        and left.cells_read == right.cells_read
        and left.votes_cast == right.votes_cast
    )


class TestShardParallelDetect:
    @pytest.fixture(scope="class")
    def watermarker(self, protection_framework):
        return HierarchicalWatermarker(protection_framework.watermark_key, copies=4)

    def test_clean_table_bit_identical(self, watermarker, protected_small):
        binned = protected_small.watermarked
        serial = watermarker.detect(binned, 20)
        for shards in (2, 4, 7):
            parallel = ShardExecutor(4).detect(watermarker, binned, 20, shards=shards)
            assert _detection_equal(serial, parallel)

    def test_attacked_tables_bit_identical(self, watermarker, protected_small):
        executor = ShardExecutor(4)
        for attack in (
            SubsetAlterationAttack(0.4, seed=3),
            SubsetDeletionAttack(0.3, seed=5, mode=DeletionMode.RANDOM),
        ):
            attacked = attack.run(protected_small.watermarked).attacked
            serial = watermarker.detect(attacked, 20)
            parallel = executor.detect(watermarker, attacked, 20, shards=5)
            assert _detection_equal(serial, parallel)

    def test_single_shard_falls_back_to_serial(self, watermarker, protected_small):
        binned = protected_small.watermarked
        assert _detection_equal(
            watermarker.detect(binned, 20),
            ShardExecutor(1).detect(watermarker, binned, 20, shards=1),
        )

    def test_detect_stream_merges_chunks(self, watermarker, protected_small):
        binned = protected_small.watermarked
        chunk_views = [binned.slice(start, stop) for start, stop in shard_spans(len(binned.table), 6)]
        streamed = ShardExecutor(3).detect_stream(watermarker, iter(chunk_views), 20)
        assert _detection_equal(watermarker.detect(binned, 20), streamed)

    def test_detect_stream_empty(self, watermarker):
        report = ShardExecutor(2).detect_stream(watermarker, iter(()), 20)
        assert report.tuples_selected == 0 and len(report.mark) == 20

    def test_detect_stream_pulls_chunks_lazily(self, watermarker, protected_small):
        """The chunk generator must not be drained ahead of the workers."""
        binned = protected_small.watermarked
        spans = shard_spans(len(binned.table), 12)
        pulled = []

        def chunks():
            for index, (start, stop) in enumerate(spans):
                pulled.append(index)
                yield binned.slice(start, stop)

        executor = ShardExecutor(2)
        original = watermarker.collect_votes
        seen_at_first_collect = []

        def tracking_collect(piece, mark_length):
            if not seen_at_first_collect:
                seen_at_first_collect.append(len(pulled))
            return original(piece, mark_length)

        watermarker.collect_votes = tracking_collect
        try:
            report = executor.detect_stream(watermarker, chunks(), 20)
        finally:
            del watermarker.collect_votes
        # With a bounded window only ~max_workers+1 chunks may be pulled
        # before the first one is processed — never all twelve.
        assert seen_at_first_collect[0] <= executor.max_workers + 1
        assert _detection_equal(watermarker.detect(binned, 20), report)

    def test_empty_table_with_explicit_shards(self, watermarker, protected_small):
        empty = protected_small.watermarked.slice(0, 0)
        report = ShardExecutor(4).detect(watermarker, empty, 20, shards=4)
        assert report.tuples_selected == 0 and len(report.mark) == 20
        embedding = ShardExecutor(4).embed(
            watermarker, empty, random_mark(20, seed=2), shards=4
        )
        assert len(embedding.watermarked.table) == 0 and embedding.cells_embedded == 0


class TestShardParallelEmbed:
    def test_embed_bit_identical(self, protection_framework, protected_small):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        mark = random_mark(20, seed=99)
        binned = protected_small.binned
        serial = watermarker.embed(binned, mark)
        parallel = ShardExecutor(4).embed(watermarker, binned, mark, shards=5)
        assert parallel.watermarked.table == serial.watermarked.table
        assert parallel.tuples_selected == serial.tuples_selected
        assert parallel.cells_embedded == serial.cells_embedded
        assert parallel.cells_changed == serial.cells_changed
        assert parallel.cells_skipped_no_bandwidth == serial.cells_skipped_no_bandwidth

    def test_embed_leaves_source_untouched(self, protection_framework, protected_small):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        binned = protected_small.binned
        before = [dict(row) for row in binned.table.rows[:50]]
        ShardExecutor(4).embed(watermarker, binned, random_mark(20, seed=1), shards=4)
        assert binned.table.rows[:50] == before


class TestPaperScaleAcceptance:
    """The ISSUE's acceptance bar: bit-identical at 20k rows, >= 4 workers."""

    @pytest.fixture(scope="class")
    def workload_20k(self):
        from repro.experiments.config import ExperimentConfig, build_workload

        return build_workload(ExperimentConfig(table_size=20_000, seed=2005, k=20, eta=50))

    def test_clean_and_attacked_20k(self, workload_20k):
        config = workload_20k.config
        watermarker = HierarchicalWatermarker(
            workload_20k.framework.watermark_key,
            copies=config.effective_copies(len(workload_20k.trees)),
        )
        executor = ShardExecutor(4)
        clean = workload_20k.protected.watermarked
        attacked = SubsetAlterationAttack(0.3, seed=7).run(clean).attacked
        for table in (clean, attacked):
            serial = watermarker.detect(table, config.mark_length)
            parallel = executor.detect(watermarker, table, config.mark_length, shards=4)
            assert _detection_equal(serial, parallel)
