"""Subset Alteration attack (Section 7.2, Figure 12a).

The attacker picks a random subset of the tuples and modifies their
quasi-identifying values arbitrarily, hoping to overwrite enough embedded bits
to destroy the mark, while leaving the rest of the table untouched (so it
stays sellable).  Altered cells are set to arbitrary values drawn from the
column's generalized domain — the most damaging choice available to an
attacker who wants the table to keep looking like a legitimately binned one.
"""

from __future__ import annotations

from typing import Sequence

from repro.attacks.base import AttackResult
from repro.binning.binner import BinnedTable
from repro.crypto.prng import DeterministicPRNG

__all__ = ["SubsetAlterationAttack"]


class SubsetAlterationAttack:
    """Randomly alter a fraction of the tuples."""

    def __init__(
        self,
        fraction: float,
        *,
        seed: object = 0,
        columns: Sequence[str] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        fraction:
            Fraction of the tuples to alter (the x-axis of Figure 12a).
        seed:
            Seed of the attacker's randomness (experiments are reproducible).
        columns:
            Columns to alter; defaults to every binned quasi-identifier.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        self.fraction = fraction
        self.seed = seed
        self.columns = tuple(columns) if columns is not None else None

    def run(self, binned: BinnedTable) -> AttackResult:
        """Attack a copy of *binned*."""
        rng = DeterministicPRNG(("subset-alteration", self.seed, self.fraction))
        attacked = binned.lazy_copy()
        columns = self.columns if self.columns is not None else attacked.quasi_columns
        # The attacker replaces values with other plausible generalized values
        # of the same column (anything else would be spotted immediately).
        candidate_values: dict[str, list[object]] = {
            column: [node.value for node in attacked.ultimate_node_objects(column)] for column in columns
        }
        indices = rng.subset_indices(len(attacked.table), self.fraction)
        # Draw the replacement values row-major (the draw order fixes the PRNG
        # stream, so it must not change), then apply them column by column —
        # one bulk write per column.
        picks: dict[str, list[object]] = {column: [] for column in columns}
        for index in indices:
            for column in columns:
                picks[column].append(rng.choice(candidate_values[column]))
        for column in columns:
            attacked.table.set_cells(column, indices, picks[column])
        return AttackResult(
            attacked=attacked,
            rows_touched=len(indices),
            description=f"subset alteration of {self.fraction:.0%} of the tuples",
            details={"altered_indices": indices, "columns": list(columns)},
        )
