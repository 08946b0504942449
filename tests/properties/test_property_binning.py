"""Property-based tests for the binning invariants."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning.binner import BinningAgent
from repro.binning.errors import NotBinnableError
from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.binning.mono import gen_min_nodes, num_tuples_under
from repro.dht.builders import binary_numeric_tree, from_nested_mapping
from repro.dht.cuts import enumerate_cuts_between
from repro.metrics.information_loss import column_information_loss, leaf_counts
from repro.metrics.usage_metrics import UsageMetrics
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table


@st.composite
def tree_and_counts(draw):
    """A random 3-level hierarchy plus random per-leaf counts."""
    n_groups = draw(st.integers(2, 4))
    spec = {}
    label = 0
    for group_index in range(n_groups):
        n_leaves = draw(st.integers(1, 4))
        spec[f"group-{group_index}"] = [f"leaf-{label + i}" for i in range(n_leaves)]
        label += n_leaves
    tree = from_nested_mapping("attr", "root", spec)
    counts = {leaf: draw(st.integers(0, 30)) for leaf in tree.leaves()}
    return tree, counts


class TestMonoBinningInvariants:
    @given(payload=tree_and_counts(), k=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_minimal_nodes_form_a_valid_k_anonymous_cut(self, payload, k):
        tree, counts = payload
        try:
            minimal = gen_min_nodes(tree, [tree.root], counts, k)
        except NotBinnableError:
            # Only legitimate when the whole table is smaller than k.
            assert sum(counts.values()) < k
            return
        assert tree.is_valid_cut(minimal)
        for node in minimal:
            covered = num_tuples_under(node, counts)
            assert covered == 0 or covered >= k

    @given(payload=tree_and_counts(), k=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_no_child_of_a_refined_minimal_node_could_do_better(self, payload, k):
        """Minimality: an internal minimal node has at least one undersized child."""
        tree, counts = payload
        try:
            minimal = gen_min_nodes(tree, [tree.root], counts, k)
        except NotBinnableError:
            return
        for node in minimal:
            if node.is_leaf or num_tuples_under(node, counts) == 0:
                continue
            children = tree.children(node)
            assert any(num_tuples_under(child, counts) < k for child in children)

    @given(payload=tree_and_counts(), small_k=st.integers(1, 10), extra=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_information_loss_is_monotone_in_k(self, payload, small_k, extra):
        tree, counts = payload
        big_k = small_k + extra
        try:
            fine = gen_min_nodes(tree, [tree.root], counts, small_k)
            coarse = gen_min_nodes(tree, [tree.root], counts, big_k)
        except NotBinnableError:
            return
        fine_loss = column_information_loss(tree, fine, counts)
        coarse_loss = column_information_loss(tree, coarse, counts)
        assert fine_loss <= coarse_loss + 1e-12

    @given(payload=tree_and_counts(), k=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_minimal_cut_refines_the_maximal_frontier(self, payload, k):
        tree, counts = payload
        maximal = tree.children(tree.root) if not tree.root.is_leaf else [tree.root]
        try:
            minimal = gen_min_nodes(tree, maximal, counts, k)
        except NotBinnableError:
            return
        minimal_gen = Generalization(tree, minimal)
        maximal_gen = Generalization(tree, maximal)
        assert minimal_gen.is_refinement_of(maximal_gen)


WARD_TREE = from_nested_mapping(
    "ward",
    "Hospital",
    {"Medicine": ["Cardiology", "Neurology", "Oncology"], "Surgery": ["Orthopedics", "Trauma"]},
)
AGE_TREE = binary_numeric_tree("age", 0, 80, n_intervals=8)
JOINT_TREES = {"ward": WARD_TREE, "age": AGE_TREE}
JOINT_SCHEMA = TableSchema(
    (
        Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
        Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
        Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
    )
)


@st.composite
def ward_age_tables(draw):
    """A small random (ward, age) table."""
    wards = [leaf.value for leaf in WARD_TREE.leaves()]
    cells = draw(
        st.lists(st.tuples(st.sampled_from(wards), st.integers(0, 79)), min_size=10, max_size=80)
    )
    rows = [{"id": f"p{index}", "ward": ward, "age": age} for index, (ward, age) in enumerate(cells)]
    return Table(JOINT_SCHEMA, rows)


def _brute_force_k_anonymous(table, cuts_by_column, k):
    """Every combination of cuts whose rewritten table is joint k-anonymous."""
    columns = list(cuts_by_column)
    found = []
    for combination in product(*(cuts_by_column[column] for column in columns)):
        candidate = MultiColumnGeneralization(
            {column: Generalization(JOINT_TREES[column], cut) for column, cut in zip(columns, combination)}
        )
        rows = [{**row, **candidate.generalize_row(row)} for row in table]
        sizes = Table(JOINT_SCHEMA, rows).group_by_count(columns)
        if all(size >= k for size in sizes.values()):
            found.append(candidate)
    return found


class TestJointBinningInvariants:
    @given(table=ward_age_tables(), k=st.integers(2, 5), epsilon=st.integers(0, 1), depth=st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_pick_is_the_least_lossy_k_anonymous_combination(self, table, k, epsilon, depth):
        spec = KAnonymitySpec(k=k, mode=EnforcementMode.JOINT, epsilon=epsilon)
        metrics = UsageMetrics.uniform_depth(JOINT_TREES, depth)
        maximal = {column: metrics.maximal_nodes(column, tree) for column, tree in JOINT_TREES.items()}
        below_maximal = {
            column: enumerate_cuts_between(tree, maximal[column], tree.leaves())
            for column, tree in JOINT_TREES.items()
        }
        agent = BinningAgent(JOINT_TREES, metrics, spec, "key")
        try:
            result = agent.bin(table)
        except NotBinnableError:
            # Refining a cut only splits bins, so nothing at or below the
            # maximal frontier is k-anonymous either.
            assert not _brute_force_k_anonymous(table, below_maximal, spec.effective_k)
            return
        assert not result.used_fallback
        binned = result.binned
        assert all(size >= spec.effective_k for size in binned.joint_bin_sizes().values())

        minimal = {
            column: Generalization.from_node_names(JOINT_TREES[column], binned.minimal_nodes[column])
            for column in JOINT_TREES
        }
        allowable = {
            column: [
                cut
                for cut in cuts
                if minimal[column].is_refinement_of(Generalization(JOINT_TREES[column], cut))
            ]
            for column, cuts in below_maximal.items()
        }
        found = _brute_force_k_anonymous(table, allowable, spec.effective_k)
        best = min(candidate.total_specificity_loss() for candidate in found)
        assert binned.ultimate_generalizations().total_specificity_loss() == best
