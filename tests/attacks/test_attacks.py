"""Tests for the four data-level attack simulators."""

import pytest

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.attacks.generalization_attack import GeneralizationAttack
from repro.relational.query import in_range


@pytest.fixture(scope="module")
def watermarked(protected_small):
    return protected_small.watermarked


class TestSubsetAlteration:
    def test_alters_requested_fraction(self, watermarked):
        result = SubsetAlterationAttack(0.3, seed=1).run(watermarked)
        assert result.rows_touched == round(0.3 * len(watermarked.table))
        assert len(result.attacked.table) == len(watermarked.table)

    def test_zero_fraction_is_noop(self, watermarked):
        result = SubsetAlterationAttack(0.0, seed=1).run(watermarked)
        assert result.rows_touched == 0
        assert result.attacked.table == watermarked.table

    def test_original_untouched(self, watermarked):
        before = watermarked.table.copy()
        SubsetAlterationAttack(0.5, seed=2).run(watermarked)
        assert watermarked.table == before

    def test_altered_values_stay_in_generalized_domain(self, watermarked):
        result = SubsetAlterationAttack(0.5, seed=3).run(watermarked)
        for column in watermarked.quasi_columns:
            tree = watermarked.tree(column)
            allowed = {tree.node(name).value for name in watermarked.ultimate_nodes[column]}
            assert set(result.attacked.table.column_values(column)) <= allowed

    def test_column_restriction(self, watermarked):
        result = SubsetAlterationAttack(0.5, seed=4, columns=("symptom",)).run(watermarked)
        assert result.attacked.table.column_values("age") == watermarked.table.column_values("age")

    def test_deterministic_per_seed(self, watermarked):
        a = SubsetAlterationAttack(0.4, seed=9).run(watermarked)
        b = SubsetAlterationAttack(0.4, seed=9).run(watermarked)
        c = SubsetAlterationAttack(0.4, seed=10).run(watermarked)
        assert a.attacked.table == b.attacked.table
        assert a.attacked.table != c.attacked.table

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SubsetAlterationAttack(1.5)


class TestSubsetAddition:
    def test_adds_requested_fraction(self, watermarked):
        result = SubsetAdditionAttack(0.25, seed=1).run(watermarked)
        assert result.rows_touched == round(0.25 * len(watermarked.table))
        assert len(result.attacked.table) == len(watermarked.table) + result.rows_touched

    def test_bogus_rows_conform_to_schema_and_domain(self, watermarked):
        result = SubsetAdditionAttack(0.2, seed=2).run(watermarked)
        new_rows = result.attacked.table.rows[len(watermarked.table) :]
        for row in new_rows:
            assert set(row) == set(watermarked.table.schema.column_names)
            for column in watermarked.quasi_columns:
                tree = watermarked.tree(column)
                allowed = {tree.node(name).value for name in watermarked.ultimate_nodes[column]}
                assert row[column] in allowed

    def test_bogus_identifiers_are_new(self, watermarked):
        result = SubsetAdditionAttack(0.2, seed=3).run(watermarked)
        originals = set(watermarked.table.column_values("ssn"))
        new_rows = result.attacked.table.rows[len(watermarked.table) :]
        assert all(row["ssn"] not in originals for row in new_rows)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            SubsetAdditionAttack(-0.1)

    def test_more_than_hundred_percent_allowed(self, watermarked):
        result = SubsetAdditionAttack(1.5, seed=4).run(watermarked)
        assert len(result.attacked.table) == len(watermarked.table) + round(1.5 * len(watermarked.table))


class TestSubsetDeletion:
    def test_random_mode_deletes_exact_count(self, watermarked):
        result = SubsetDeletionAttack(0.3, seed=1, mode=DeletionMode.RANDOM).run(watermarked)
        assert result.rows_touched == round(0.3 * len(watermarked.table))
        assert len(result.attacked.table) == len(watermarked.table) - result.rows_touched

    def test_range_mode_deletes_roughly_requested_share(self, watermarked):
        result = SubsetDeletionAttack(0.4, seed=2, mode=DeletionMode.IDENT_RANGES).run(watermarked)
        deleted = len(watermarked.table) - len(result.attacked.table)
        assert deleted == result.rows_touched
        assert 0.25 * len(watermarked.table) <= deleted <= 0.55 * len(watermarked.table)
        assert result.details["ranges"]

    def test_range_mode_deletes_exactly_what_its_sql_ranges_select(self, watermarked):
        """Replaying ``DELETE ... WHERE ident > l AND ident < u`` per range gives the same table."""
        result = SubsetDeletionAttack(0.4, seed=2, mode=DeletionMode.IDENT_RANGES).run(watermarked)
        ident = watermarked.identifying_columns[0]
        replay = watermarked.table.copy()
        replayed = sum(
            replay.delete_where(in_range(ident, low, high)) for low, high in result.details["ranges"]
        )
        assert replayed == result.rows_touched == result.details["deleted"]
        assert replay == result.attacked.table
        assert len(watermarked.table) == len(result.attacked.table) + replayed

    def test_zero_fraction_is_noop(self, watermarked):
        result = SubsetDeletionAttack(0.0, seed=3).run(watermarked)
        assert result.rows_touched == 0
        assert len(result.attacked.table) == len(watermarked.table)

    def test_surviving_rows_are_original_rows(self, watermarked):
        result = SubsetDeletionAttack(0.5, seed=4, mode=DeletionMode.RANDOM).run(watermarked)
        original_ids = set(watermarked.table.column_values("ssn"))
        assert set(result.attacked.table.column_values("ssn")) <= original_ids

    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetDeletionAttack(2.0)
        with pytest.raises(ValueError):
            SubsetDeletionAttack(0.5, n_ranges=0)


class TestGeneralizationAttack:
    def test_lifts_values_one_level(self, watermarked):
        result = GeneralizationAttack(levels=1).run(watermarked)
        assert result.rows_touched > 0
        assert result.details["cells_changed"] > 0
        for column in watermarked.quasi_columns:
            tree = watermarked.tree(column)
            for before, after in zip(
                watermarked.table.column_values(column), result.attacked.table.column_values(column)
            ):
                node_before = tree.value_to_node(before)
                node_after = tree.value_to_node(after)
                assert node_after is node_before or node_after.is_ancestor_of(node_before)

    def test_never_exceeds_maximal_frontier(self, watermarked):
        result = GeneralizationAttack(levels=5).run(watermarked)
        for column in watermarked.quasi_columns:
            tree = watermarked.tree(column)
            maximal = set(watermarked.maximal_node_objects(column))
            for value in result.attacked.table.column_values(column):
                node = tree.value_to_node(value)
                assert any(anchor is node or anchor.is_ancestor_of(node) for anchor in maximal)

    def test_column_restriction(self, watermarked):
        result = GeneralizationAttack(levels=1, columns=("doctor",)).run(watermarked)
        assert result.attacked.table.column_values("symptom") == watermarked.table.column_values("symptom")

    def test_idempotent_once_at_frontier(self, watermarked):
        once = GeneralizationAttack(levels=10).run(watermarked).attacked
        twice = GeneralizationAttack(levels=10).run(once).attacked
        assert once.table == twice.table

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            GeneralizationAttack(levels=0)
