"""Subset Deletion attack (Section 7.2, Figure 12c).

The attacker drops a share of the tuples to remove the mark bits they carry.
The paper deletes by identifier ranges::

    DELETE FROM R WHERE SSN > lval AND SSN < uval

and repeats the clause until the intended share is gone; because the stored
identifiers are encrypted, a lexicographic range over them is effectively a
pseudo-random subset of the original records.  Both that range mode and a
plain random-subset mode are provided.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right

from repro.attacks.base import AttackResult
from repro.binning.binner import BinnedTable
from repro.crypto.prng import DeterministicPRNG

__all__ = ["DeletionMode", "SubsetDeletionAttack"]


class DeletionMode(enum.Enum):
    """How the deleted subset is chosen."""

    IDENT_RANGES = "ident_ranges"
    RANDOM = "random"


class SubsetDeletionAttack:
    """Delete a fraction of the tuples."""

    def __init__(
        self,
        fraction: float,
        *,
        seed: object = 0,
        mode: DeletionMode = DeletionMode.IDENT_RANGES,
        n_ranges: int = 8,
    ) -> None:
        """
        Parameters
        ----------
        fraction:
            Fraction of the tuples to delete (the x-axis of Figure 12c).
        seed:
            Seed of the attacker's randomness.
        mode:
            ``IDENT_RANGES`` reproduces the paper's SQL range deletes over the
            identifying column; ``RANDOM`` deletes a uniform random subset.
        n_ranges:
            Number of successive range deletes used in ``IDENT_RANGES`` mode.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if n_ranges < 1:
            raise ValueError("n_ranges must be at least 1")
        self.fraction = fraction
        self.seed = seed
        self.mode = mode
        self.n_ranges = n_ranges

    def run(self, binned: BinnedTable) -> AttackResult:
        # The copy shares the table until the first delete rebuilds it.
        attacked = binned.lazy_copy()
        n_rows = len(attacked.table)
        target = int(round(n_rows * self.fraction))
        if target == 0 or n_rows == 0:
            return AttackResult(attacked, 0, "subset deletion of 0% of the tuples")

        if self.mode is DeletionMode.RANDOM:
            rng = DeterministicPRNG(("subset-deletion-random", self.seed, self.fraction))
            indices = rng.sample(range(n_rows), target)
            deleted = attacked.table.delete_indices(indices)
            return AttackResult(
                attacked=attacked,
                rows_touched=deleted,
                description=f"random deletion of {self.fraction:.0%} of the tuples",
                details={"deleted": deleted},
            )

        # Identifier-range mode: delete n_ranges consecutive slices of the
        # identifier order, totalling the requested share.
        ident_column = attacked.identifying_columns[0]
        rng = DeterministicPRNG(("subset-deletion-ranges", self.seed, self.fraction))
        per_range = max(1, target // self.n_ranges)
        ranges: list[tuple[str, str]] = []
        deleted_total = 0
        attempts = 0
        # The surviving identifiers in order, kept sorted across the deletes:
        # each one removes exactly the run strictly between its bounds.
        remaining = sorted(map(str, attacked.table.column_values(ident_column)))
        while deleted_total < target and attempts < self.n_ranges * 4:
            attempts += 1
            if len(remaining) <= per_range:
                break
            start = rng.randint(0, len(remaining) - per_range - 1)
            lval, uval = remaining[start], remaining[min(start + per_range + 1, len(remaining) - 1)]
            ranges.append((lval, uval))
            # WHERE ident > lval AND ident < uval, over the projected column.
            values = attacked.table.column_values(ident_column)
            doomed = [index for index, value in enumerate(values) if lval < value < uval]
            deleted_total += attacked.table.delete_indices(doomed)
            del remaining[bisect_right(remaining, lval) : bisect_left(remaining, uval)]
        return AttackResult(
            attacked=attacked,
            rows_touched=deleted_total,
            description=(
                f"range deletion of {deleted_total} tuples (~{self.fraction:.0%}) over "
                f"{len(ranges)} identifier ranges"
            ),
            details={"ranges": ranges, "deleted": deleted_total},
        )
