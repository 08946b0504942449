"""Tests for the complete binning agent (Figure 8)."""

import pytest

from repro.binning.binner import BinningAgent
from repro.binning.kanonymity import ColumnIndex, EnforcementMode, KAnonymitySpec
from repro.crypto.cipher import FieldEncryptor
from repro.dht.node import Interval
from repro.metrics.usage_metrics import UsageMetrics


class TestBinningResult:
    def test_identifying_column_is_encrypted_one_to_one(self, binned_small, medium_table):
        binned = binned_small.binned
        originals = medium_table.column_values("ssn")
        encrypted = binned.table.column_values("ssn")
        assert len(encrypted) == len(originals)
        assert set(encrypted).isdisjoint(set(originals))
        # One-to-one: distinct plaintexts stay distinct.
        assert len(set(encrypted)) == len(set(originals))
        # The owner's key recovers the plaintext.
        encryptor = FieldEncryptor("test-encryption-key")
        assert encryptor.decrypt(encrypted[0]) == originals[0]

    def test_quasi_columns_hold_generalized_values(self, binned_small):
        binned = binned_small.binned
        for column in binned.quasi_columns:
            tree = binned.tree(column)
            allowed = {tree.node(name).value for name in binned.ultimate_nodes[column]}
            assert set(binned.table.column_values(column)) <= allowed

    def test_age_values_become_intervals(self, binned_small):
        values = binned_small.binned.table.column_values("age")
        assert all(isinstance(value, Interval) for value in values)

    def test_every_mono_bin_meets_k(self, binned_small):
        binned = binned_small.binned
        for column in binned.quasi_columns:
            sizes = binned.bin_sizes(column)
            assert all(size >= binned.k for size in sizes.values()), column

    def test_minimal_nodes_below_maximal(self, binned_small):
        binned = binned_small.binned
        for column in binned.quasi_columns:
            tree = binned.tree(column)
            maximal = set(binned.maximal_node_objects(column))
            for node in binned.ultimate_node_objects(column):
                assert any(anchor is node or anchor.is_ancestor_of(node) for anchor in maximal)

    def test_information_loss_bookkeeping(self, binned_small):
        assert set(binned_small.information_losses) == set(binned_small.binned.quasi_columns)
        assert 0.0 <= binned_small.normalized_information_loss <= 1.0
        assert binned_small.mono_normalized_information_loss <= binned_small.normalized_information_loss + 1e-9

    def test_row_count_preserved(self, binned_small, medium_table):
        assert len(binned_small.binned.table) == len(medium_table)

    def test_other_metadata(self, binned_small):
        binned = binned_small.binned
        assert binned.identifying_columns == ("ssn",)
        assert set(binned.quasi_columns) == {"age", "zip_code", "doctor", "symptom", "prescription"}
        assert binned.k == 10


class TestBinnedTableHelpers:
    def test_ident_value_single_column(self, binned_small):
        binned = binned_small.binned
        row = binned.table[0]
        assert binned.ident_value(row) == row["ssn"]

    def test_generalization_accessors(self, binned_small):
        binned = binned_small.binned
        gen = binned.ultimate_generalization("symptom")
        assert gen.attribute == "symptom"
        multi = binned.ultimate_generalizations()
        assert set(multi.columns) == set(binned.quasi_columns)
        assert binned.maximal_generalization("symptom").attribute == "symptom"

    def test_unknown_column_raises(self, binned_small):
        with pytest.raises(KeyError):
            binned_small.binned.tree("nonexistent")

    def test_copy_isolates_rows(self, binned_small):
        binned = binned_small.binned
        clone = binned.copy()
        clone.table[0]["symptom"] = "tampered"
        assert binned.table[0]["symptom"] != "tampered"

    def test_joint_bin_sizes_cover_table(self, binned_small):
        sizes = binned_small.binned.joint_bin_sizes()
        assert sum(sizes.values()) == len(binned_small.binned.table)


class TestBinningAgentModes:
    def test_joint_mode_enforces_joint_k(self, trees, small_table):
        metrics = UsageMetrics.uniform_depth(trees, 0)
        agent = BinningAgent(
            trees, metrics, KAnonymitySpec(k=5, mode=EnforcementMode.JOINT), "key", enumeration_budget=64
        )
        result = agent.bin(small_table)
        sizes = result.binned.joint_bin_sizes()
        assert sum(sizes.values()) == len(small_table)
        assert all(size >= 5 for size in sizes.values())

    def test_joint_plan_needs_combination_counts(self, trees, small_table):
        agent = BinningAgent(
            trees, UsageMetrics.uniform_depth(trees, 0), KAnonymitySpec(k=5, mode=EnforcementMode.JOINT), "key"
        )
        counts = ColumnIndex.from_table(small_table, trees, ["age", "symptom"])
        assert agent.plan_from_counts(counts).columns == ("age", "symptom")
        per_leaf_only = ColumnIndex(
            trees,
            {
                column: {leaf.name: rows for leaf, rows in counts.leaf_counts(column).items()}
                for column in counts.columns
            },
        )
        with pytest.raises(ValueError, match="leaf-combination counts"):
            agent.plan_from_counts(per_leaf_only)

    def test_mono_mode_does_not_necessarily_satisfy_joint(self, binned_small):
        sizes = binned_small.binned.joint_bin_sizes()
        assert any(size < binned_small.binned.k for size in sizes.values())

    def test_epsilon_margin_applied(self, trees, small_table):
        metrics = UsageMetrics.uniform_depth(trees, 1)
        agent = BinningAgent(
            trees, metrics, KAnonymitySpec(k=5, epsilon=5, mode=EnforcementMode.MONO), "key"
        )
        result = agent.bin(small_table)
        for column in result.binned.quasi_columns:
            assert all(size >= 10 for size in result.binned.bin_sizes(column).values())

    def test_missing_tree_raises(self, trees, small_table):
        partial = {"age": trees["age"]}
        agent = BinningAgent(partial, UsageMetrics(), KAnonymitySpec(k=5, mode=EnforcementMode.MONO), "key")
        with pytest.raises(KeyError):
            agent.bin(small_table)

    def test_explicit_column_subset(self, trees, small_table):
        spec = KAnonymitySpec(k=5, columns=("age", "symptom"), mode=EnforcementMode.MONO)
        agent = BinningAgent(trees, UsageMetrics.uniform_depth(trees, 1), spec, "key")
        result = agent.bin(small_table)
        assert set(result.binned.quasi_columns) == {"age", "symptom"}
        # Untouched quasi columns keep their raw values.
        assert set(result.binned.table.column_values("doctor")) == set(small_table.column_values("doctor"))

    def test_decrypt_identifier_roundtrip(self, trees, small_table):
        agent = BinningAgent(
            trees, UsageMetrics.uniform_depth(trees, 1), KAnonymitySpec(k=5, mode=EnforcementMode.MONO), "key"
        )
        result = agent.bin(small_table)
        token = result.binned.table[0]["ssn"]
        assert agent.decrypt_identifier(token) == small_table[0]["ssn"]

    def test_original_table_untouched(self, trees, small_table):
        before = small_table.copy()
        agent = BinningAgent(
            trees, UsageMetrics.uniform_depth(trees, 1), KAnonymitySpec(k=5, mode=EnforcementMode.MONO), "key"
        )
        agent.bin(small_table)
        assert small_table == before
