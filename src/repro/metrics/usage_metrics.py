"""Usage metrics and their off-line enforcement (Section 4.1).

The metrics bound the information loss binning and watermarking may cause:

* per-column bounds ``InfLoss_i <= bd_i`` and an average bound
  ``InfLoss <= bd_avg`` (Equation 4), or
* directly, a set of **maximal generalization nodes** per column — the
  highest nodes to which the column's leaves may ever be generalised.

The paper prefers the second form ("It is preferable that the maximal
generalization nodes are directly given as the usage metrics") and this is the
simplification its experiments use.  :class:`UsageMetrics` supports both:
explicit frontiers are used as-is, and numeric bounds are compiled off-line
into frontiers by :func:`derive_maximal_nodes` (a top-down refinement that
keeps splitting the node contributing most loss until the bound is met).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree
from repro.metrics.information_loss import column_information_loss

__all__ = [
    "InformationLossBounds",
    "UsageMetrics",
    "derive_maximal_nodes",
    "frontier_at_depth",
]


@dataclass(frozen=True)
class InformationLossBounds:
    """The bound set ``B = {bd_1, ..., bd_CN}`` plus ``bd_avg`` of Equation 4."""

    per_column: Mapping[str, float]
    average: float | None = None

    def __post_init__(self) -> None:
        for column, bound in self.per_column.items():
            if not 0.0 <= bound <= 1.0:
                raise ValueError(f"bound for column {column!r} must lie in [0, 1], got {bound}")
        if self.average is not None and not 0.0 <= self.average <= 1.0:
            raise ValueError(f"average bound must lie in [0, 1], got {self.average}")

    def bound_for(self, column: str) -> float:
        try:
            return self.per_column[column]
        except KeyError:
            raise KeyError(f"no information-loss bound for column {column!r}") from None

    def satisfied_by(self, per_column_losses: Mapping[str, float]) -> bool:
        """Check Equation (4) against measured per-column losses."""
        for column, loss in per_column_losses.items():
            if column in self.per_column and loss > self.per_column[column] + 1e-12:
                return False
        if self.average is not None and per_column_losses:
            mean = sum(per_column_losses.values()) / len(per_column_losses)
            if mean > self.average + 1e-12:
                return False
        return True


def frontier_at_depth(tree: DomainHierarchyTree, depth: int) -> list[DHTNode]:
    """The valid cut consisting of every node at *depth* (or shallower leaves).

    A convenient way to specify maximal generalization nodes uniformly:
    ``depth=0`` is the root cut (no constraint on generalisation), larger
    depths constrain generalisation to ever finer frontiers.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    frontier: list[DHTNode] = []

    def descend(node: DHTNode, remaining: int) -> None:
        if remaining == 0 or node.is_leaf:
            frontier.append(node)
            return
        for child in tree.children(node):
            descend(child, remaining - 1)

    descend(tree.root, depth)
    return frontier


def derive_maximal_nodes(
    tree: DomainHierarchyTree,
    counts: Mapping[DHTNode, int],
    bound: float,
) -> list[DHTNode]:
    """Off-line enforcement: compile a loss bound into maximal generalization nodes.

    Starting from the root cut, repeatedly split the cut node whose
    generalisation contributes the most information loss until the cut's loss
    is within *bound*.  The result is a valid generalization in which every
    node is (greedily) as high as the bound permits — the paper's definition
    of maximal generalization nodes.  A bound of 1.0 returns the root cut, a
    bound of 0.0 the leaf cut.
    """
    if not 0.0 <= bound <= 1.0:
        raise ValueError("bound must lie in [0, 1]")
    cut: list[DHTNode] = [tree.root]

    def node_contribution(node: DHTNode) -> float:
        return column_information_loss(tree, _replace_with_children(tree, cut, node), counts)

    while True:
        loss = column_information_loss(tree, cut, counts)
        if loss <= bound + 1e-12:
            return sorted(cut, key=lambda node: node.sort_key)
        splittable = [node for node in cut if not node.is_leaf]
        if not splittable:  # pragma: no cover - loss of a leaf cut is always 0
            return sorted(cut, key=lambda node: node.sort_key)
        # Split the node whose removal (replacement by its children) lowers
        # the loss the most.
        best = min(splittable, key=lambda node: (node_contribution(node), node.sort_key))
        cut = [other for other in cut if other is not best] + list(tree.children(best))


def _replace_with_children(
    tree: DomainHierarchyTree, cut: Sequence[DHTNode], node: DHTNode
) -> list[DHTNode]:
    """The cut obtained from *cut* by replacing *node* with its children."""
    return [other for other in cut if other is not node] + list(tree.children(node))


@dataclass
class UsageMetrics:
    """Usage metrics for a whole table.

    Exactly one of the two specification styles is used per column:

    * ``maximal_nodes`` — explicit frontier (node names) per column, the
      paper's preferred, directly-given form, or
    * ``bounds`` — Equation (4) bounds compiled off-line from the caller's
      per-leaf counts on every query (the frontier depends on the counts).

    ``watermark_slack`` implements the remark at the end of Section 5.1: the
    bounds used to *derive* the frontier can be set slightly lower than the
    true usage limit so that the occasional permutation up to a maximal
    generalization node stays within what the data usage tolerates.
    """

    maximal_node_names: dict[str, tuple[str, ...]] = field(default_factory=dict)
    bounds: InformationLossBounds | None = None
    watermark_slack: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.watermark_slack < 1.0:
            raise ValueError("watermark_slack must lie in [0, 1)")

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_maximal_nodes(cls, frontiers: Mapping[str, Sequence[DHTNode]]) -> "UsageMetrics":
        """Build metrics from explicit per-column frontiers of nodes."""
        return cls(
            maximal_node_names={
                column: tuple(node.name for node in nodes) for column, nodes in frontiers.items()
            }
        )

    @classmethod
    def from_bounds(
        cls, bounds: InformationLossBounds, *, watermark_slack: float = 0.0
    ) -> "UsageMetrics":
        """Build metrics from Equation (4) bounds (compiled per query from leaf counts)."""
        return cls(bounds=bounds, watermark_slack=watermark_slack)

    @classmethod
    def uniform_depth(
        cls, trees: Mapping[str, DomainHierarchyTree], depth: int
    ) -> "UsageMetrics":
        """Frontier at a uniform depth for every column (depth 0 = root cut)."""
        return cls.from_maximal_nodes(
            {column: frontier_at_depth(tree, depth) for column, tree in trees.items()}
        )

    # ----------------------------------------------------------------- queries
    def columns(self) -> list[str]:
        if self.maximal_node_names:
            return list(self.maximal_node_names)
        if self.bounds is not None:
            return list(self.bounds.per_column)
        return []

    def maximal_nodes(
        self,
        column: str,
        tree: DomainHierarchyTree,
        counts: Mapping[DHTNode, int] | None = None,
    ) -> list[DHTNode]:
        """The maximal generalization nodes for *column*.

        Explicit frontiers are resolved against *tree*; bound-style metrics
        are compiled with :func:`derive_maximal_nodes`, which requires the
        per-leaf entry *counts* of the column.
        """
        if column in self.maximal_node_names:
            frontier = [tree.node(name) for name in self.maximal_node_names[column]]
            if not tree.is_valid_cut(frontier):
                raise ValueError(
                    f"maximal generalization nodes for column {column!r} are not a valid generalization"
                )
        elif self.bounds is not None:
            if counts is None:
                raise ValueError(
                    f"deriving maximal nodes for column {column!r} from bounds requires leaf counts"
                )
            bound = max(0.0, self.bounds.bound_for(column) - self.watermark_slack)
            frontier = derive_maximal_nodes(tree, counts, bound)
        else:
            # No constraint specified: the root cut (generalisation unconstrained).
            frontier = [tree.root]
        return frontier

    def allows_cut(
        self,
        column: str,
        tree: DomainHierarchyTree,
        cut: Sequence[DHTNode],
        counts: Mapping[DHTNode, int] | None = None,
    ) -> bool:
        """Whether *cut* stays at or below the column's maximal frontier."""
        frontier = self.maximal_nodes(column, tree, counts)
        frontier_set = set(frontier)
        for node in cut:
            if not any(step in frontier_set for step in node.ancestors(include_self=True)):
                return False
        return True
