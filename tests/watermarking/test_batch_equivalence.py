"""Golden end-to-end equivalence: batched pipeline vs the seed's scalar hashing.

The default watermarkers must produce **bit-identical** watermarked tables
and detection reports to the same watermarkers driven by the injected
:class:`ScalarWatermarkEngine`, which reproduces the seed implementation's
per-call hashing — under clean detection and after every attack.  LSB marks
are checked against a per-ident :func:`keyed_hash` plan written out here.
"""

from __future__ import annotations

import pytest

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.attacks.generalization_attack import GeneralizationAttack
from repro.crypto.batch import ScalarWatermarkEngine
from repro.crypto.hashing import keyed_hash
from repro.watermarking.baseline_lsb import LSBWatermarker
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import random_mark
from repro.watermarking.single_level import SingleLevelWatermarker

MARK = random_mark(20, seed="batch-equivalence")
KEY = WatermarkKey.from_secret("batch-equivalence-secret", eta=10)


def _pair(cls):
    return (
        cls(KEY, copies=3),
        cls(KEY, copies=3, engine=ScalarWatermarkEngine(KEY)),
    )


def _assert_embeddings_equal(batched, scalar):
    assert batched.watermarked.table == scalar.watermarked.table
    assert batched.tuples_selected == scalar.tuples_selected
    assert batched.cells_embedded == scalar.cells_embedded
    assert batched.cells_changed == scalar.cells_changed
    assert batched.cells_skipped_no_bandwidth == scalar.cells_skipped_no_bandwidth


def _assert_detections_equal(batched, scalar):
    assert batched.mark.bits == scalar.mark.bits
    assert batched.wmd_bits == scalar.wmd_bits
    assert batched.positions_with_votes == scalar.positions_with_votes
    assert batched.tuples_selected == scalar.tuples_selected
    assert batched.cells_read == scalar.cells_read
    assert batched.votes_cast == scalar.votes_cast


@pytest.mark.parametrize("scheme", [HierarchicalWatermarker, SingleLevelWatermarker])
class TestGoldenEmbedDetect:
    def test_embed_is_bit_identical(self, binned_small, scheme):
        batched_wm, scalar_wm = _pair(scheme)
        _assert_embeddings_equal(
            batched_wm.embed(binned_small.binned, MARK),
            scalar_wm.embed(binned_small.binned, MARK),
        )

    def test_clean_detection_is_bit_identical(self, binned_small, scheme):
        batched_wm, scalar_wm = _pair(scheme)
        watermarked = batched_wm.embed(binned_small.binned, MARK).watermarked
        _assert_detections_equal(
            batched_wm.detect(watermarked, len(MARK)),
            scalar_wm.detect(watermarked, len(MARK)),
        )

    @pytest.mark.parametrize(
        "attack",
        [
            SubsetAlterationAttack(0.4, seed=5),
            SubsetAdditionAttack(0.4, seed=5),
            SubsetDeletionAttack(0.4, seed=5, mode=DeletionMode.RANDOM),
            GeneralizationAttack(levels=1),
        ],
        ids=["alteration", "addition", "deletion", "generalization"],
    )
    def test_detection_after_attack_is_bit_identical(self, binned_small, scheme, attack):
        batched_wm, scalar_wm = _pair(scheme)
        watermarked = batched_wm.embed(binned_small.binned, MARK).watermarked
        attacked = attack.run(watermarked).attacked
        _assert_detections_equal(
            batched_wm.detect(attacked, len(MARK)),
            scalar_wm.detect(attacked, len(MARK)),
        )

    def test_embedding_leaves_the_source_untouched(self, binned_small, scheme):
        batched_wm, _ = _pair(scheme)
        before = binned_small.binned.table.copy()
        embedding = batched_wm.embed(binned_small.binned, MARK)
        assert binned_small.binned.table == before
        # And mutating the watermarked copy does not leak back either.
        embedding.watermarked.table.mutable_row(0)["symptom"] = "poisoned"
        assert binned_small.binned.table == before


LSB_KEY = WatermarkKey.from_secret("lsb-equivalence", eta=4)
LSB_COLUMNS = ("age",)
LSB_XI = 2


def _scalar_lsb_plan(ident):
    """The seed's per-call plan for one tuple: (column, bit index, bit value) or None."""
    if keyed_hash((ident, "select"), LSB_KEY.k1) % LSB_KEY.eta != 0:
        return None
    column = LSB_COLUMNS[keyed_hash((ident, "column"), LSB_KEY.k1) % len(LSB_COLUMNS)]
    bit_index = keyed_hash((ident, "bit-index"), LSB_KEY.k1) % LSB_XI
    bit_value = keyed_hash((ident, "bit-value"), LSB_KEY.k1) & 1
    return column, bit_index, bit_value


class TestGoldenLSB:
    def _watermarker(self):
        return LSBWatermarker(LSB_KEY, columns=LSB_COLUMNS, ident_column="ssn", xi=LSB_XI)

    def test_embed_and_detect_are_bit_identical(self, medium_table):
        marked = self._watermarker().embed(medium_table)
        expected_rows = []
        total = already_set = 0
        for row in medium_table:
            row = dict(row)
            plan = _scalar_lsb_plan(row["ssn"])
            if plan is not None:
                column, bit_index, bit_value = plan
                value = row[column]
                if isinstance(value, int) and not isinstance(value, bool):
                    total += 1
                    already_set += (value >> bit_index) & 1 == bit_value
                    if bit_value:
                        row[column] = value | (1 << bit_index)
                    else:
                        row[column] = value & ~(1 << bit_index)
            expected_rows.append(row)
        assert [dict(row) for row in marked] == expected_rows
        assert 0 < already_set < total
        clean = self._watermarker().detect(medium_table)
        assert (clean.total_checked, clean.matches) == (total, already_set)
        report = self._watermarker().detect(marked)
        assert (report.total_checked, report.matches) == (total, total)

    def test_embed_leaves_the_source_untouched(self, medium_table):
        before = medium_table.copy()
        marked = self._watermarker().embed(medium_table)
        assert medium_table == before
        marked.mutable_row(0)["age"] = -1
        assert medium_table == before
