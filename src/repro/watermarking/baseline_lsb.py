"""Agrawal–Kiernan style LSB watermarking of numeric columns (related work).

The seminal relational watermarking scheme of Agrawal and Kiernan (VLDB 2002)
marks *numeric* attributes: for a keyed-selected subset of tuples it forces
one of the ``ξ`` least significant bits of one numeric attribute to a keyed
pseudo-random value.  Detection recomputes the expected bits and counts
matches; ownership is claimed when the match rate is significantly above the
0.5 expected by chance.

The paper cites this scheme to argue that trivial LSB embedding "is inherently
vulnerable, as a simple flipping of LSBs would completely destroy the inserted
mark".  The implementation here exists for exactly that ablation: the
benchmark flips least-significant bits (an attack that preserves data usage
almost perfectly) and shows the LSB detector collapsing to chance while the
hierarchical scheme keeps its mark.

The scheme operates on the *raw* table (before binning) because after binning
numeric columns become intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.batch import KeyedHashStream, TupleHasher, serialise_value
from repro.relational.table import Table
from repro.watermarking.keys import WatermarkKey

__all__ = ["LSBDetectionReport", "LSBWatermarker"]


@dataclass(frozen=True)
class LSBDetectionReport:
    """Match statistics of LSB detection."""

    total_checked: int
    matches: int
    threshold: float

    @property
    def match_rate(self) -> float:
        if self.total_checked == 0:
            return 0.0
        return self.matches / self.total_checked

    @property
    def mark_present(self) -> bool:
        """Whether the match rate clears the decision threshold."""
        return self.total_checked > 0 and self.match_rate >= self.threshold


class LSBWatermarker:
    """Simplified Agrawal–Kiernan embedding over integer-valued columns."""

    def __init__(
        self,
        key: WatermarkKey,
        *,
        columns: Sequence[str],
        ident_column: str,
        xi: int = 2,
        threshold: float = 0.8,
    ) -> None:
        """
        Parameters
        ----------
        key:
            Watermarking key; ``eta`` plays the role of the selection modulus
            ``γ`` of the original scheme.
        columns:
            Numeric columns eligible for marking.
        ident_column:
            The (primary-key) column whose value drives the keyed selection.
        xi:
            Number of least significant bits available for marking.
        threshold:
            Match rate above which detection declares the mark present.

        Keyed hashing is batched (HMAC pads built once, idents serialised
        once per tuple, digests cached) and :meth:`embed` writes into a
        copy-on-write table.  Every digest equals the per-call
        ``keyed_hash((ident, label), k1)`` of the seed.
        """
        if not columns:
            raise ValueError("at least one markable column is required")
        if xi < 1:
            raise ValueError("xi must be at least 1")
        if not 0.5 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0.5, 1.0]")
        self._key = key
        self._columns = tuple(columns)
        self._ident_column = ident_column
        self._xi = xi
        self._threshold = threshold
        stream = KeyedHashStream(key.k1)
        self._select_hasher = TupleHasher(stream, ("select",))
        self._column_hasher = TupleHasher(stream, ("column",))
        self._bit_index_hasher = TupleHasher(stream, ("bit-index",))
        self._bit_value_hasher = TupleHasher(stream, ("bit-value",))

    # ---------------------------------------------------------------- helpers
    def _cell_plan(self, ident: object) -> tuple[str, int, int] | None:
        """For a selected tuple: (column, bit index, bit value); ``None`` if unselected."""
        payload = serialise_value(ident)
        if self._select_hasher.hash_int(payload) % self._key.eta != 0:
            return None
        column = self._columns[self._column_hasher.hash_int(payload) % len(self._columns)]
        bit_index = self._bit_index_hasher.hash_int(payload) % self._xi
        bit_value = self._bit_value_hasher.hash_int(payload) & 1
        return column, bit_index, bit_value

    # -------------------------------------------------------------------- API
    def embed(self, table: Table) -> Table:
        """Return a marked copy of *table* (integer columns only are touched)."""
        marked = table.lazy_copy()
        for index in range(len(marked)):
            row = marked[index]
            plan = self._cell_plan(row[self._ident_column])
            if plan is None:
                continue
            column, bit_index, bit_value = plan
            value = row[column]
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            if bit_value:
                new_value = value | (1 << bit_index)
            else:
                new_value = value & ~(1 << bit_index)
            if new_value != value:
                marked.mutable_row(index)[column] = new_value
        return marked

    def detect(self, table: Table) -> LSBDetectionReport:
        """Count how many marked bits still hold their expected value."""
        total = 0
        matches = 0
        for row in table:
            plan = self._cell_plan(row[self._ident_column])
            if plan is None:
                continue
            column, bit_index, bit_value = plan
            value = row[column]
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            total += 1
            if (value >> bit_index) & 1 == bit_value:
                matches += 1
        return LSBDetectionReport(total_checked=total, matches=matches, threshold=self._threshold)
