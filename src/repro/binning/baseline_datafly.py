"""Upward full-domain generalization baseline (Datafly / Samarati–Sweeney style).

The paper's related work ([26], [28], [29]) reaches k-anonymity by binning
*upward*: start from the raw values and repeatedly generalise a whole column
one level up its hierarchy until every bin holds at least ``k`` records.  The
classic Datafly heuristic picks, at every step, the column with the most
distinct values.

This baseline exists for the ablation benchmark comparing the paper's
downward binning (enabled by off-line usage metrics) against the traditional
upward approach: both reach k-anonymity, but they differ in the number of
candidate generalizations examined and in the information loss of the cut they
stop at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.binning.errors import NotBinnableError
from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.binning.kanonymity import ColumnIndex, EnforcementMode, KAnonymitySpec
from repro.dht.tree import DomainHierarchyTree
from repro.metrics.information_loss import table_information_loss
from repro.metrics.usage_metrics import frontier_at_depth
from repro.relational.table import Table

__all__ = ["DataflyOutcome", "DataflyBinner"]


@dataclass(frozen=True)
class DataflyOutcome:
    """Result of the upward baseline; *generalization* is k-anonymous."""

    generalization: MultiColumnGeneralization
    information_losses: dict[str, float]
    normalized_information_loss: float
    steps: int


class DataflyBinner:
    """Upward, full-domain generalization with the most-distinct-values heuristic."""

    def __init__(self, trees: Mapping[str, DomainHierarchyTree], k_spec: KAnonymitySpec) -> None:
        self._trees = dict(trees)
        self._k_spec = k_spec

    def _cut_at_depth(self, column: str, depth: int) -> Generalization:
        tree = self._trees[column]
        return Generalization(tree, frontier_at_depth(tree, depth))

    def bin(self, table: Table) -> DataflyOutcome:
        """Generalise *table*'s quasi-identifiers upward until k-anonymous.

        Raises :class:`NotBinnableError` when even the all-root generalization
        (every column fully suppressed to its root value) fails — which can
        only happen when the table itself has fewer than ``k`` rows.
        """
        columns = self._k_spec.resolve_columns(table)
        counts = ColumnIndex.from_table(table, self._trees, columns)
        k = self._k_spec.effective_k

        depths = {column: self._trees[column].height for column in columns}
        current = MultiColumnGeneralization(
            {column: self._cut_at_depth(column, depths[column]) for column in columns}
        )
        steps = 0
        while not self._satisfied(counts, current, k):
            # Datafly heuristic: generalise the column with the most distinct
            # (generalized) values one level up.
            candidates = [column for column in columns if depths[column] > 0]
            if not candidates:
                raise NotBinnableError(f"table has only {len(table)} rows, cannot satisfy k={k}", k=k)
            distinct = {
                column: len(counts.mono_bin_sizes(column, current[column])) for column in candidates
            }
            chosen = max(candidates, key=lambda column: (distinct[column], column))
            depths[chosen] -= 1
            current = current.with_replaced(chosen, self._cut_at_depth(chosen, depths[chosen]))
            steps += 1

        losses = current.information_losses(counts.counts_by_column())
        return DataflyOutcome(
            generalization=current,
            information_losses=losses,
            normalized_information_loss=table_information_loss(losses),
            steps=steps,
        )

    def _satisfied(self, counts: ColumnIndex, generalization: MultiColumnGeneralization, k: int) -> bool:
        if self._k_spec.mode is EnforcementMode.MONO:
            return all(
                counts.satisfies_mono(column, generalization[column], k) for column in generalization
            )
        return counts.satisfies_joint(generalization, k)

    def apply(self, table: Table, generalization: MultiColumnGeneralization) -> Table:
        """Rewrite *table*'s quasi-identifiers under *generalization* (no encryption)."""
        rewritten = Table(table.schema)
        for row in table:
            new_row = dict(row)
            for column, gen in generalization.items():
                new_row[column] = gen.generalize(row[column])
            rewritten.insert(new_row)
        return rewritten
