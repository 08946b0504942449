"""Tests for the upward (Datafly-style) binning baseline."""

import pytest

from repro.binning.baseline_datafly import DataflyBinner
from repro.binning.binner import BinningAgent
from repro.binning.errors import NotBinnableError
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.metrics.usage_metrics import UsageMetrics
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table


class TestDataflyBinner:
    def test_mono_result_is_k_anonymous(self, trees, small_table):
        binner = DataflyBinner(trees, KAnonymitySpec(k=10, mode=EnforcementMode.MONO))
        outcome = binner.bin(small_table)
        applied = binner.apply(small_table, outcome.generalization)
        for column in outcome.generalization.columns:
            assert all(size >= 10 for size in applied.value_counts(column).values())

    def test_joint_result_is_k_anonymous(self, trees, small_table):
        binner = DataflyBinner(trees, KAnonymitySpec(k=5, mode=EnforcementMode.JOINT))
        outcome = binner.bin(small_table)
        applied = binner.apply(small_table, outcome.generalization)
        sizes = applied.group_by_count(list(outcome.generalization.columns))
        assert all(size >= 5 for size in sizes.values())

    def test_full_domain_cuts_only(self, trees, small_table):
        """Datafly generalizes whole columns level by level (uniform depth)."""
        binner = DataflyBinner(trees, KAnonymitySpec(k=10, mode=EnforcementMode.MONO))
        outcome = binner.bin(small_table)
        for column, generalization in outcome.generalization.items():
            depths = {node.depth() for node in generalization.nodes if not node.is_leaf}
            # All non-leaf cut nodes sit at the same depth (full-domain recoding).
            assert len(depths) <= 1

    def test_loses_more_information_than_downward_binning(self, trees, depth1_metrics, small_table):
        spec = KAnonymitySpec(k=10, mode=EnforcementMode.MONO)
        downward = BinningAgent(trees, depth1_metrics, spec, "key").bin(small_table)
        upward = DataflyBinner(trees, spec).bin(small_table)
        assert upward.normalized_information_loss >= downward.normalized_information_loss

    def test_steps_counted(self, trees, small_table):
        outcome = DataflyBinner(trees, KAnonymitySpec(k=10, mode=EnforcementMode.MONO)).bin(small_table)
        assert outcome.steps > 0

    def test_tiny_table_not_binnable(self, trees):
        schema = TableSchema(
            (
                Column("ssn", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
                Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
            )
        )
        table = Table(schema, [{"ssn": "1", "age": 30}, {"ssn": "2", "age": 40}])
        binner = DataflyBinner({"age": trees["age"]}, KAnonymitySpec(k=5, mode=EnforcementMode.MONO))
        with pytest.raises(NotBinnableError):
            binner.bin(table)

    def test_missing_tree_raises(self, trees, small_table):
        binner = DataflyBinner({"age": trees["age"]}, KAnonymitySpec(k=5, mode=EnforcementMode.MONO))
        with pytest.raises(KeyError):
            binner.bin(small_table)
