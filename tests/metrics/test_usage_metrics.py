"""Tests for usage metrics and their off-line enforcement."""

import pytest

from repro.metrics.information_loss import column_information_loss, leaf_counts
from repro.metrics.usage_metrics import (
    InformationLossBounds,
    UsageMetrics,
    derive_maximal_nodes,
    frontier_at_depth,
)


class TestInformationLossBounds:
    def test_bound_lookup(self):
        bounds = InformationLossBounds({"age": 0.3, "ward": 0.5}, average=0.4)
        assert bounds.bound_for("age") == 0.3
        with pytest.raises(KeyError):
            bounds.bound_for("missing")

    def test_validation(self):
        with pytest.raises(ValueError):
            InformationLossBounds({"age": 1.5})
        with pytest.raises(ValueError):
            InformationLossBounds({"age": 0.5}, average=-0.1)

    def test_satisfied_by(self):
        bounds = InformationLossBounds({"age": 0.3, "ward": 0.5}, average=0.35)
        assert bounds.satisfied_by({"age": 0.2, "ward": 0.5})
        assert not bounds.satisfied_by({"age": 0.31, "ward": 0.1})
        assert not bounds.satisfied_by({"age": 0.3, "ward": 0.5})  # average exceeded
        assert bounds.satisfied_by({})


class TestFrontierAtDepth:
    def test_depth_zero_is_root(self, role_tree):
        assert frontier_at_depth(role_tree, 0) == [role_tree.root]

    def test_depth_one(self, role_tree):
        assert {node.name for node in frontier_at_depth(role_tree, 1)} == {
            "Medical staff",
            "Administrative staff",
        }

    def test_depth_beyond_leaves_returns_leaves(self, role_tree):
        frontier = frontier_at_depth(role_tree, 99)
        assert set(frontier) == set(role_tree.leaves())

    def test_frontier_is_always_a_valid_cut(self, role_tree, age8_tree):
        for tree in (role_tree, age8_tree):
            for depth in range(0, tree.height + 2):
                assert tree.is_valid_cut(frontier_at_depth(tree, depth))

    def test_negative_depth_rejected(self, role_tree):
        with pytest.raises(ValueError):
            frontier_at_depth(role_tree, -1)


class TestDeriveMaximalNodes:
    def test_bound_one_gives_root(self, role_tree):
        counts = leaf_counts(role_tree, ["Nurse", "Clerk"])
        assert derive_maximal_nodes(role_tree, counts, 1.0) == [role_tree.root]

    def test_bound_zero_keeps_populated_leaves_ungeneralized(self, role_tree):
        counts = leaf_counts(role_tree, ["Nurse", "Clerk"])
        frontier = derive_maximal_nodes(role_tree, counts, 0.0)
        assert role_tree.is_valid_cut(frontier)
        assert column_information_loss(role_tree, frontier, counts) == 0.0
        # Leaves that actually hold entries may not be generalized at all;
        # empty subtrees may stay collapsed (they cost nothing).
        assert role_tree.node("Nurse") in frontier
        assert role_tree.node("Clerk") in frontier

    def test_bound_zero_with_full_coverage_gives_all_leaves(self, role_tree):
        values = [leaf.value for leaf in role_tree.leaves()]
        counts = leaf_counts(role_tree, values)
        assert set(derive_maximal_nodes(role_tree, counts, 0.0)) == set(role_tree.leaves())

    def test_result_is_valid_and_within_bound(self, role_tree):
        counts = leaf_counts(role_tree, ["Nurse", "Clerk", "Surgeon", "Director", "Pharmacist"] * 3)
        for bound in (0.1, 0.3, 0.5, 0.8):
            frontier = derive_maximal_nodes(role_tree, counts, bound)
            assert role_tree.is_valid_cut(frontier)
            assert column_information_loss(role_tree, frontier, counts) <= bound + 1e-9

    def test_tighter_bound_means_finer_frontier(self, role_tree):
        counts = leaf_counts(role_tree, ["Nurse", "Clerk", "Surgeon", "Director"] * 5)
        loose = derive_maximal_nodes(role_tree, counts, 0.9)
        tight = derive_maximal_nodes(role_tree, counts, 0.1)
        assert len(tight) >= len(loose)

    def test_invalid_bound_rejected(self, role_tree):
        with pytest.raises(ValueError):
            derive_maximal_nodes(role_tree, {}, 1.2)


class TestUsageMetrics:
    def test_explicit_frontiers(self, role_tree):
        metrics = UsageMetrics.from_maximal_nodes(
            {"role": [role_tree.node("Medical staff"), role_tree.node("Administrative staff")]}
        )
        frontier = metrics.maximal_nodes("role", role_tree)
        assert {node.name for node in frontier} == {"Medical staff", "Administrative staff"}
        assert metrics.columns() == ["role"]

    def test_explicit_frontier_must_be_valid(self, role_tree):
        metrics = UsageMetrics(maximal_node_names={"role": ("Medical staff",)})
        with pytest.raises(ValueError):
            metrics.maximal_nodes("role", role_tree)

    def test_uniform_depth_constructor(self, trees):
        metrics = UsageMetrics.uniform_depth(trees, 1)
        for column, tree in trees.items():
            frontier = metrics.maximal_nodes(column, tree)
            assert tree.is_valid_cut(frontier)
            assert all(node.depth() <= 1 for node in frontier)

    def test_bounds_compiled_lazily(self, role_tree):
        counts = leaf_counts(role_tree, ["Nurse", "Clerk", "Surgeon"] * 4)
        metrics = UsageMetrics.from_bounds(InformationLossBounds({"role": 0.4}))
        frontier = metrics.maximal_nodes("role", role_tree, counts)
        assert role_tree.is_valid_cut(frontier)
        assert column_information_loss(role_tree, frontier, counts) <= 0.4 + 1e-9

    def test_bound_frontier_follows_each_call_s_counts(self, age8_tree):
        # A bound-style object reused across tables must derive each table's
        # frontier from that table's counts, not return the first one.
        leaves = age8_tree.leaves()
        skewed = {leaf: 100 if index < 2 else 1 for index, leaf in enumerate(leaves)}
        uniform = {leaf: 10 for leaf in leaves}
        bounds = InformationLossBounds({"age": 0.2})
        reused = UsageMetrics.from_bounds(bounds)
        for counts in (skewed, uniform):
            frontier = reused.maximal_nodes("age", age8_tree, counts)
            assert frontier == UsageMetrics.from_bounds(bounds).maximal_nodes("age", age8_tree, counts)
            assert column_information_loss(age8_tree, frontier, counts) <= 0.2 + 1e-9
        assert reused.maximal_nodes("age", age8_tree, skewed) != reused.maximal_nodes(
            "age", age8_tree, uniform
        )

    def test_bounds_require_counts(self, role_tree):
        metrics = UsageMetrics.from_bounds(InformationLossBounds({"role": 0.4}))
        with pytest.raises(ValueError):
            metrics.maximal_nodes("role", role_tree)

    def test_no_constraint_defaults_to_root(self, role_tree):
        metrics = UsageMetrics()
        assert metrics.maximal_nodes("role", role_tree) == [role_tree.root]

    def test_watermark_slack_lowers_the_frontier(self, role_tree):
        counts = leaf_counts(role_tree, ["Nurse", "Clerk", "Surgeon", "Pharmacist"] * 4)
        plain = UsageMetrics.from_bounds(InformationLossBounds({"role": 0.6}))
        slack = UsageMetrics.from_bounds(InformationLossBounds({"role": 0.6}), watermark_slack=0.4)
        assert len(slack.maximal_nodes("role", role_tree, counts)) >= len(
            plain.maximal_nodes("role", role_tree, counts)
        )

    def test_watermark_slack_validation(self):
        with pytest.raises(ValueError):
            UsageMetrics(watermark_slack=1.0)

    def test_allows_cut(self, role_tree):
        metrics = UsageMetrics.from_maximal_nodes(
            {"role": [role_tree.node("Medical staff"), role_tree.node("Administrative staff")]}
        )
        assert metrics.allows_cut("role", role_tree, role_tree.leaves())
        assert metrics.allows_cut(
            "role", role_tree, [role_tree.node("Medical staff"), role_tree.node("Administrative staff")]
        )
        assert not metrics.allows_cut("role", role_tree, [role_tree.root])

    def test_returned_frontier_is_a_copy(self, role_tree):
        metrics = UsageMetrics.from_maximal_nodes({"role": [role_tree.root]})
        first = metrics.maximal_nodes("role", role_tree)
        first.append(role_tree.node("Doctor"))
        assert metrics.maximal_nodes("role", role_tree) == [role_tree.root]
