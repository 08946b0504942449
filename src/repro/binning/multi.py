"""Multi-attribute binning (Figure 7 of the paper).

After mono-attribute binning every column is k-anonymous on its own, but
combinations of columns may not be.  Multi-attribute binning therefore picks,
for every column, a generalization lying between its minimal generalization
nodes (below) and its maximal generalization nodes (above) such that the
*combination* satisfies k-anonymity, choosing among the valid candidates the
one with the least specificity loss (Section 4.2.2).

Both searches read only counts: a candidate is k-anonymous when the rows of
every leaf combination (:attr:`ColumnIndex.combinations`), summed into the
candidate's joint bins, reach ``k`` in each bin.

The paper enumerates all ``prod_i n_i`` combinations of allowable
generalizations (``EnumGen``) and filters them.  That is exact but explodes
for deep trees, so this module implements both:

* **exact enumeration** (the paper's algorithm) whenever the combination count
  fits a configurable budget, and
* a **greedy coarsening fallback** otherwise: starting from the minimal
  frontier, repeatedly merge — at the node level — the sibling group that
  covers the most records violating joint k-anonymity (the rows of the leaf
  combinations in undersized bins, summed under each candidate parent), until
  the combination is k-anonymous or every column has reached its maximal
  frontier.  The fallback stays within the allowable-generalization lattice
  of the paper and reports itself through
  :class:`MultiBinningOutcome.used_fallback`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from repro.binning.errors import NotBinnableError
from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.binning.kanonymity import ColumnIndex
from repro.dht.cuts import count_cuts_between, enumerate_cuts_between
from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree

__all__ = [
    "allowable_generalizations",
    "count_allowable_combinations",
    "MultiBinningOutcome",
    "gen_ultimate_nodes",
]

DEFAULT_ENUMERATION_BUDGET = 4096


def allowable_generalizations(
    tree: DomainHierarchyTree,
    minimal_nodes: Sequence[DHTNode],
    maximal_nodes: Sequence[DHTNode],
    *,
    limit: int | None = None,
) -> list[Generalization]:
    """All generalizations of one column between its two frontiers.

    This is the per-column candidate set of Section 4.2.2 (the example of
    Figure 6 yields six of them).  ``limit`` guards against explosion; when it
    is exceeded an :class:`OverflowError` propagates to the caller, which then
    falls back to the greedy search.
    """
    cuts = enumerate_cuts_between(tree, list(maximal_nodes), list(minimal_nodes), limit=limit)
    return [Generalization(tree, cut) for cut in cuts]


def count_allowable_combinations(
    trees: Mapping[str, DomainHierarchyTree],
    minimal_nodes: Mapping[str, Sequence[DHTNode]],
    maximal_nodes: Mapping[str, Sequence[DHTNode]],
) -> int:
    """``prod_i n_i`` — the number of combinations exact enumeration would visit."""
    total = 1
    for column, tree in trees.items():
        total *= count_cuts_between(tree, list(maximal_nodes[column]), list(minimal_nodes[column]))
    return total


@dataclass(frozen=True)
class MultiBinningOutcome:
    """Result of multi-attribute binning.

    Attributes
    ----------
    generalization:
        The ultimate generalization (one cut per column); it satisfies joint
        k-anonymity.
    used_fallback:
        ``True`` when the greedy search replaced exact enumeration.
    """

    generalization: MultiColumnGeneralization
    used_fallback: bool


def _exact_search(
    counts: ColumnIndex,
    per_column_candidates: Mapping[str, list[Generalization]],
    k: int,
) -> MultiColumnGeneralization | None:
    """The paper's ``EnumGen`` + ``Selection``: enumerate, filter, pick the best."""
    columns = list(per_column_candidates)
    best: MultiColumnGeneralization | None = None
    best_loss = float("inf")
    for combination in product(*(per_column_candidates[column] for column in columns)):
        candidate = MultiColumnGeneralization(dict(zip(columns, combination)))
        if not counts.satisfies_joint(candidate, k):
            continue
        loss = candidate.total_specificity_loss()
        if loss < best_loss:
            best, best_loss = candidate, loss
    return best


def _coarsening_candidates(
    tree: DomainHierarchyTree,
    cut: Sequence[DHTNode],
    maximal_nodes: Sequence[DHTNode],
) -> list[tuple[DHTNode, list[DHTNode]]]:
    """Ways to coarsen *cut* by one merge step, staying under the maximal frontier.

    Each candidate is ``(parent, nodes_replaced)``: every cut node under
    *parent* is replaced by *parent* itself.  Only parents that are descendants
    (or members) of the maximal frontier are allowed.
    """
    cut_set = set(cut)
    maximal_set = set(maximal_nodes)
    parents: list[DHTNode] = []
    seen: set[DHTNode] = set()
    for node in cut:
        parent = node.parent
        if parent is None or parent in seen:
            continue
        seen.add(parent)
        # The parent must stay within the allowable region: it must be a
        # maximal node itself or lie strictly below one.
        if parent not in maximal_set and not any(
            ancestor in maximal_set for ancestor in parent.ancestors()
        ):
            continue
        parents.append(parent)
    candidates: list[tuple[DHTNode, list[DHTNode]]] = []
    for parent in parents:
        replaced = [node for node in cut if parent.is_ancestor_of(node)]
        # Replacing is only a valid cut move when every leaf under the parent
        # is currently covered by nodes below the parent (no partial overlap
        # can happen for valid cuts, so this is just a completeness check).
        covered_leaves = {leaf for node in replaced for leaf in node.leaves()}
        if covered_leaves == set(parent.leaves()):
            candidates.append((parent, replaced))
    return candidates


def _greedy_search(
    counts: ColumnIndex,
    minimal_nodes: Mapping[str, Sequence[DHTNode]],
    maximal_nodes: Mapping[str, Sequence[DHTNode]],
    k: int,
) -> MultiColumnGeneralization | None:
    """Greedy coarsening from the minimal frontier toward the maximal frontier.

    Returns ``None`` when no merge within the maximal frontiers pools any
    violating rows and the combination is still not k-anonymous.
    """
    columns = counts.columns
    current = MultiColumnGeneralization(
        {column: Generalization(counts.tree(column), minimal_nodes[column]) for column in columns}
    )
    while True:
        violating = counts.violating_combinations(current, k)
        if not violating:
            return current

        # Score every single-merge coarsening by the number of violating rows
        # it touches; apply the best one.  Touching more violating rows means
        # the merge pools more undersized bins together.
        best_score = -1
        best_leaf_span = 0
        best_column: str | None = None
        best_parent: DHTNode | None = None
        best_replaced: list[DHTNode] | None = None
        for position, column in enumerate(columns):
            tree = counts.tree(column)
            cut = current[column].nodes
            violating_leaf_counts: dict[str, int] = {}
            for leaves, rows in violating.items():
                leaf = leaves[position]
                violating_leaf_counts[leaf] = violating_leaf_counts.get(leaf, 0) + rows
            for parent, replaced in _coarsening_candidates(tree, cut, maximal_nodes[column]):
                under = {leaf.name for leaf in parent.leaves()}
                score = sum(count for leaf, count in violating_leaf_counts.items() if leaf in under)
                leaf_span = len(under)
                # Prefer merges that pool many violating rows; break ties by
                # the smaller subtree merged (less specificity loss).
                if score > best_score or (score == best_score and best_parent is not None and leaf_span < best_leaf_span):
                    best_score = score
                    best_leaf_span = leaf_span
                    best_column = column
                    best_parent = parent
                    best_replaced = list(replaced)
        if best_column is None or best_parent is None or best_score <= 0:
            # No further coarsening possible within the maximal frontiers.
            return None
        new_cut = [node for node in current[best_column].nodes if node not in set(best_replaced or [])]
        new_cut.append(best_parent)
        current = current.with_replaced(best_column, Generalization(counts.tree(best_column), new_cut))


def gen_ultimate_nodes(
    counts: ColumnIndex,
    minimal_nodes: Mapping[str, Sequence[DHTNode]],
    maximal_nodes: Mapping[str, Sequence[DHTNode]],
    k: int,
    *,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> MultiBinningOutcome:
    """``GenUltiNd`` of Figure 7: choose the ultimate generalization nodes.

    Works over every column of *counts*, from its leaf-combination counts.
    Runs the exact enumeration whenever the total combination count fits
    within *enumeration_budget* and the greedy coarsening otherwise.

    Raises
    ------
    NotBinnableError
        If even the maximal frontiers do not satisfy joint k-anonymity (the
        data are not binnable for this specification).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    columns = counts.columns
    for column in columns:
        if column not in minimal_nodes or column not in maximal_nodes:
            raise KeyError(f"missing frontier for column {column!r}")
    trees = {column: counts.tree(column) for column in columns}

    total = count_allowable_combinations(trees, minimal_nodes, maximal_nodes)
    used_fallback = total > enumeration_budget
    if used_fallback:
        found = _greedy_search(counts, minimal_nodes, maximal_nodes, k)
    else:
        per_column = {
            column: allowable_generalizations(
                trees[column], list(minimal_nodes[column]), list(maximal_nodes[column])
            )
            for column in columns
        }
        # Finest candidates first: among combinations of equal loss the first
        # one enumerated wins, so this order fixes the tie-break.
        for column in columns:
            per_column[column].sort(key=lambda gen: -len(gen.nodes))
        found = _exact_search(counts, per_column, k)

    if found is None:
        coarsest = MultiColumnGeneralization(
            {column: Generalization(trees[column], maximal_nodes[column]) for column in columns}
        )
        if not counts.satisfies_joint(coarsest, k):
            raise NotBinnableError(
                f"the combination of columns {columns} cannot satisfy k={k} even at the maximal "
                "generalization nodes",
                k=k,
            )
        # The frontier itself works even though the search did not find a
        # finer solution (can happen for the greedy fallback); fall back to it.
        found = coarsest
    return MultiBinningOutcome(found, used_fallback=used_fallback)
