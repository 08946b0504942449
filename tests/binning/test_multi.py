"""Tests for multi-attribute binning (Figure 7)."""

import pytest

from repro.binning.errors import NotBinnableError
from repro.binning.generalization import Generalization
from repro.binning.kanonymity import ColumnIndex
from repro.binning.mono import gen_min_nodes
from repro.binning.multi import (
    allowable_generalizations,
    count_allowable_combinations,
    gen_ultimate_nodes,
)
from repro.crypto.prng import DeterministicPRNG
from repro.metrics.usage_metrics import frontier_at_depth
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table


@pytest.fixture()
def correlated_table(tiny_tree, age8_tree):
    """A table whose ward/age combination is intentionally sparse.

    Each ward individually and each age band individually holds plenty of
    rows, but several (ward, age) combinations are rare — exactly the paper's
    motivation for the multi-attribute step.
    """
    schema = TableSchema(
        (
            Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
            Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
            Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
        )
    )
    rng = DeterministicPRNG("correlated-table")
    rows = []
    wards = [leaf.value for leaf in tiny_tree.leaves()]
    for index in range(300):
        ward = wards[index % len(wards)]
        # Surgery patients skew old, medicine patients skew young -> sparse
        # combinations in the off-diagonal cells.
        if ward in ("Orthopedics", "Trauma"):
            age = rng.randint(50, 79)
        else:
            age = rng.randint(0, 49)
        if index % 37 == 0:  # a few contrarian rows create the rare combos
            age = 79 - age
        rows.append({"id": f"p{index:03d}", "ward": ward, "age": age})
    return Table(schema, rows)


@pytest.fixture()
def frontiers(correlated_table, tiny_tree, age8_tree):
    trees = {"ward": tiny_tree, "age": age8_tree}
    index = ColumnIndex.from_table(correlated_table, trees, ["ward", "age"])
    k = 8
    maximal = {"ward": [tiny_tree.root], "age": [age8_tree.root]}
    minimal = {
        column: gen_min_nodes(trees[column], maximal[column], index.leaf_counts(column), k)
        for column in trees
    }
    return trees, index, minimal, maximal, k


class TestAllowableGeneralizations:
    def test_between_frontiers(self, role_tree):
        minimal = role_tree.leaves()
        maximal = frontier_at_depth(role_tree, 1)
        candidates = allowable_generalizations(role_tree, minimal, maximal)
        assert all(isinstance(candidate, Generalization) for candidate in candidates)
        # Every candidate lies between the frontiers.
        minimal_gen = Generalization(role_tree, minimal)
        maximal_gen = Generalization(role_tree, maximal)
        for candidate in candidates:
            assert minimal_gen.is_refinement_of(candidate)
            assert candidate.is_refinement_of(maximal_gen)

    def test_count_matches(self, role_tree, age8_tree):
        trees = {"role": role_tree, "age": age8_tree}
        minimal = {"role": role_tree.leaves(), "age": age8_tree.leaves()}
        maximal = {"role": [role_tree.root], "age": [age8_tree.root]}
        per_column = {
            column: len(allowable_generalizations(trees[column], minimal[column], maximal[column]))
            for column in trees
        }
        assert count_allowable_combinations(trees, minimal, maximal) == (
            per_column["role"] * per_column["age"]
        )

    def test_limit_propagates(self, role_tree):
        with pytest.raises(OverflowError):
            allowable_generalizations(role_tree, role_tree.leaves(), [role_tree.root], limit=3)


class TestGenUltimateNodes:
    def test_exact_search_satisfies_joint_k(self, frontiers):
        trees, index, minimal, maximal, k = frontiers
        outcome = gen_ultimate_nodes(index, minimal, maximal, k, enumeration_budget=100_000)
        assert not outcome.used_fallback
        assert index.satisfies_joint(outcome.generalization, k)

    def test_greedy_search_satisfies_joint_k(self, frontiers):
        trees, index, minimal, maximal, k = frontiers
        outcome = gen_ultimate_nodes(index, minimal, maximal, k, enumeration_budget=1)
        assert outcome.used_fallback
        assert index.satisfies_joint(outcome.generalization, k)

    def test_exact_picks_minimal_specificity_loss(self, frontiers):
        trees, index, minimal, maximal, k = frontiers
        exact = gen_ultimate_nodes(index, minimal, maximal, k, enumeration_budget=100_000)
        greedy = gen_ultimate_nodes(index, minimal, maximal, k, enumeration_budget=1)
        assert (
            exact.generalization.total_specificity_loss()
            <= greedy.generalization.total_specificity_loss() + 1e-9
        )

    def test_ultimate_lies_between_frontiers(self, frontiers):
        trees, index, minimal, maximal, k = frontiers
        outcome = gen_ultimate_nodes(index, minimal, maximal, k)
        for column in trees:
            ultimate = outcome.generalization[column]
            assert Generalization(trees[column], minimal[column]).is_refinement_of(ultimate)
            assert ultimate.is_refinement_of(Generalization(trees[column], maximal[column]))

    def test_mono_satisfying_input_stays_put_when_already_joint(self, role_tree, age8_tree):
        # If the minimal frontier already satisfies joint k-anonymity, it is
        # chosen unchanged (it has the least specificity loss).
        schema = TableSchema(
            (
                Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
                Column("role", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
                Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
            )
        )
        rows = []
        for index in range(120):
            rows.append({"id": str(index), "role": "Nurse" if index % 2 else "Clerk", "age": 20 + (index % 2) * 40})
        table = Table(schema, rows)
        trees = {"role": role_tree, "age": age8_tree}
        index_obj = ColumnIndex.from_table(table, trees, ["role", "age"])
        minimal = {
            column: gen_min_nodes(trees[column], [trees[column].root], index_obj.leaf_counts(column), 10)
            for column in trees
        }
        maximal = {column: [trees[column].root] for column in trees}
        outcome = gen_ultimate_nodes(index_obj, minimal, maximal, 10)
        assert index_obj.satisfies_joint(outcome.generalization, 10)
        assert outcome.generalization.node_names() == {
            column: Generalization(trees[column], minimal[column]).node_names for column in trees
        }

    def test_not_binnable_raises(self, tiny_tree, age8_tree):
        schema = TableSchema(
            (
                Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
                Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
            )
        )
        table = Table(schema, [{"id": "1", "ward": "Trauma"}, {"id": "2", "ward": "Cardiology"}])
        trees = {"ward": tiny_tree}
        index = ColumnIndex.from_table(table, trees, ["ward"])
        minimal = {"ward": tiny_tree.leaves()}
        maximal = {"ward": [tiny_tree.root]}
        with pytest.raises(NotBinnableError):
            gen_ultimate_nodes(index, minimal, maximal, k=5)

    def test_missing_frontier_rejected(self, frontiers):
        trees, index, minimal, maximal, k = frontiers
        with pytest.raises(KeyError):
            gen_ultimate_nodes(index, {"ward": minimal["ward"]}, maximal, k)

    def test_invalid_k_rejected(self, frontiers):
        trees, index, minimal, maximal, _ = frontiers
        with pytest.raises(ValueError):
            gen_ultimate_nodes(index, minimal, maximal, k=0)
