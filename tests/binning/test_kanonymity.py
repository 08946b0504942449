"""Tests for the k-anonymity specification, bins and the column index."""

from collections import Counter

import pytest

from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.binning.kanonymity import (
    ColumnIndex,
    EnforcementMode,
    KAnonymitySpec,
    is_k_anonymous,
)
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table


@pytest.fixture()
def ward_table():
    schema = TableSchema(
        (
            Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
            Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
            Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
        )
    )
    rows = []
    wards = ["Cardiology"] * 6 + ["Neurology"] * 3 + ["Orthopedics"] * 4 + ["Trauma"] * 2
    ages = [12, 25, 37, 44, 55, 63, 18, 29, 71, 33, 47, 52, 66, 8, 59]
    for index, (ward, age) in enumerate(zip(wards, ages)):
        rows.append({"id": f"p{index:02d}", "ward": ward, "age": age})
    return Table(schema, rows)


@pytest.fixture()
def ward_trees(tiny_tree, age8_tree):
    return {"ward": tiny_tree, "age": age8_tree}


class TestKAnonymitySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KAnonymitySpec(k=0)
        with pytest.raises(ValueError):
            KAnonymitySpec(k=5, epsilon=-1)

    def test_effective_k(self):
        assert KAnonymitySpec(k=10).effective_k == 10
        assert KAnonymitySpec(k=10, epsilon=3).effective_k == 13
        assert KAnonymitySpec(k=10).with_epsilon(2).effective_k == 12

    def test_default_mode_is_joint(self):
        assert KAnonymitySpec(k=5).mode is EnforcementMode.JOINT

    def test_resolve_columns_defaults_to_quasi_identifiers(self, ward_table):
        assert KAnonymitySpec(k=5).resolve_columns(ward_table) == ["ward", "age"]

    def test_resolve_columns_explicit(self, ward_table):
        assert KAnonymitySpec(k=5, columns=("ward",)).resolve_columns(ward_table) == ["ward"]
        with pytest.raises(KeyError):
            KAnonymitySpec(k=5, columns=("missing",)).resolve_columns(ward_table)


class TestIsKAnonymous:
    def test_basic(self):
        assert is_k_anonymous({"a": 5, "b": 7}, 5)
        assert not is_k_anonymous({"a": 5, "b": 4}, 5)
        assert is_k_anonymous({}, 5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            is_k_anonymous({"a": 1}, 0)


class TestColumnIndex:
    def test_leaf_and_combination_counts(self, ward_table, ward_trees):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        assert index.columns == ["ward", "age"]
        counts = index.leaf_counts("ward")
        assert counts[ward_trees["ward"].node("Cardiology")] == 6
        assert sum(counts.values()) == len(ward_table)
        # One entry per distinct (ward leaf, age leaf) pair, matching a
        # group-by over the rows resolved to their leaves.
        expected = Counter(
            (
                ward_trees["ward"].leaf_for_raw(row["ward"]).name,
                ward_trees["age"].leaf_for_raw(row["age"]).name,
            )
            for row in ward_table
        )
        assert index.combinations == expected

    def test_counts_from_leaf_names_match_the_table(self, ward_table, ward_trees):
        from_table = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        names = {
            column: {leaf.name: rows for leaf, rows in from_table.leaf_counts(column).items() if rows}
            for column in ("ward", "age")
        }
        from_names = ColumnIndex(ward_trees, names)
        assert from_names.counts_by_column() == from_table.counts_by_column()
        assert from_names.combinations is None
        with pytest.raises(ValueError):
            from_names.joint_bin_sizes(MultiColumnGeneralization.identity(ward_trees, ["ward", "age"]))

    def test_missing_tree_raises(self, ward_table, ward_trees):
        with pytest.raises(KeyError):
            ColumnIndex.from_table(ward_table, {"ward": ward_trees["ward"]}, ["ward", "age"])
        with pytest.raises(KeyError):
            ColumnIndex({"ward": ward_trees["ward"]}, {"ward": {}, "age": {}})

    def test_out_of_domain_value_raises(self, ward_trees):
        schema = TableSchema(
            (
                Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
                Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
            )
        )
        table = Table(schema, [{"id": "1", "ward": "Trauma"}, {"id": "2", "ward": "Pediatrics"}])
        with pytest.raises(ValueError, match="Pediatrics"):
            ColumnIndex.from_table(table, ward_trees, ["ward"])

    def test_counts_by_column_returns_copies(self, ward_table, ward_trees):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward"])
        counts = index.counts_by_column()["ward"]
        counts.clear()
        assert sum(index.leaf_counts("ward").values()) == len(ward_table)

    def test_mono_bin_sizes_identity(self, ward_table, ward_trees):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        identity = Generalization.identity(ward_trees["ward"])
        sizes = index.mono_bin_sizes("ward", identity)
        assert sizes[ward_trees["ward"].node("Trauma")] == 2

    def test_mono_bin_sizes_generalized(self, ward_table, ward_trees):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        coarse = Generalization.from_node_names(ward_trees["ward"], ["Medicine", "Surgery"])
        sizes = {node.name: count for node, count in index.mono_bin_sizes("ward", coarse).items()}
        assert sizes == {"Medicine": 9, "Surgery": 6}

    def test_satisfies_mono(self, ward_table, ward_trees):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        identity = Generalization.identity(ward_trees["ward"])
        coarse = Generalization.from_node_names(ward_trees["ward"], ["Medicine", "Surgery"])
        assert index.satisfies_mono("ward", identity, 2)
        assert not index.satisfies_mono("ward", identity, 3)
        assert index.satisfies_mono("ward", coarse, 6)

    def test_joint_bin_sizes_and_violations(self, ward_table, ward_trees):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        multi = MultiColumnGeneralization(
            {
                "ward": Generalization.from_node_names(ward_trees["ward"], ["Medicine", "Surgery"]),
                "age": Generalization(ward_trees["age"], list(ward_trees["age"].root.children)),
            }
        )
        sizes = index.joint_bin_sizes(multi)
        assert sum(sizes.values()) == len(ward_table)
        k = 4
        violations = index.violating_combinations(multi, k)
        undersized = sum(size for size in sizes.values() if size < k)
        assert 0 < sum(violations.values()) == undersized
        assert index.satisfies_joint(multi, 1)
        assert not index.satisfies_joint(multi, 100)

    def test_joint_requires_covered_columns(self, ward_table, ward_trees, role_tree):
        index = ColumnIndex.from_table(ward_table, ward_trees, ["ward", "age"])
        unrelated = MultiColumnGeneralization({"role": Generalization.identity(role_tree)})
        with pytest.raises(ValueError):
            index.joint_bin_sizes(unrelated)
