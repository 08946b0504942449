"""k-anonymity specification, bins and checks.

A *bin* is the set of records sharing the same (generalized) value
combination; the table satisfies k-anonymity when every bin holds at least
``k`` records (Section 2).  The paper distinguishes

* **mono-attribute** satisfaction — every attribute, taken alone, is
  k-anonymous (the output of Figure 5), and
* **multi-attribute** (joint) satisfaction — every combination of the binned
  attributes is k-anonymous (the goal of Figure 7).

:class:`KAnonymitySpec` captures the system parameter ``k``, the set of
quasi-identifying columns to bin, the enforcement mode and the ``k + ε``
safety margin of Section 6 that absorbs watermarking-induced bin changes.

Binning decides from counts alone.  :class:`ColumnIndex` holds them — rows
per leaf of every binned column, and rows per combination of leaves across
the columns — and checks a candidate generalization by summing those counts
into its bins.  It is filled once per table (:meth:`ColumnIndex.from_table`)
or from the per-leaf counts a streamed protect merges in its first pass.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree
from repro.relational.table import Table

__all__ = [
    "EnforcementMode",
    "KAnonymitySpec",
    "ColumnIndex",
    "is_k_anonymous",
]


class EnforcementMode(enum.Enum):
    """How the k-anonymity specification is enforced across columns."""

    MONO = "mono"
    JOINT = "joint"


@dataclass(frozen=True)
class KAnonymitySpec:
    """The k-anonymity specification of Section 3.

    Parameters
    ----------
    k:
        The anonymity parameter; every bin must contain at least ``k`` rows.
    columns:
        Quasi-identifying columns to bin.  ``None`` means "every
        quasi-identifying column of the schema".
    mode:
        ``MONO`` enforces k-anonymity attribute by attribute (the
        mono-attribute step only); ``JOINT`` additionally enforces it on the
        combination of the binned attributes (the multi-attribute step).
    epsilon:
        The ``ε`` of Section 6: binning actually targets ``k + ε`` so that
        the tuple permutations introduced by watermarking cannot push any bin
        below ``k``.
    """

    k: int
    columns: tuple[str, ...] | None = None
    mode: EnforcementMode = EnforcementMode.JOINT
    epsilon: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    @property
    def effective_k(self) -> int:
        """The threshold binning actually enforces (``k + ε``)."""
        return self.k + self.epsilon

    def resolve_columns(self, table: Table) -> list[str]:
        """The concrete column list for *table* (defaults to its QI columns)."""
        if self.columns is not None:
            for name in self.columns:
                table.schema.column(name)
            return list(self.columns)
        return [column.name for column in table.schema.quasi_identifying_columns]

    def with_epsilon(self, epsilon: int) -> "KAnonymitySpec":
        return KAnonymitySpec(self.k, self.columns, self.mode, epsilon)


def _trees_for(
    trees: Mapping[str, DomainHierarchyTree], columns: Sequence[str]
) -> dict[str, DomainHierarchyTree]:
    missing = [column for column in columns if column not in trees]
    if missing:
        raise KeyError(f"no domain hierarchy tree for columns {missing}")
    return {column: trees[column] for column in columns}


class ColumnIndex:
    """The row counts binning plans from, and the k-anonymity checks over them.

    Binning reads nothing else from the rows (Section 4.2): ``GenMinNd`` needs
    how many rows fall under each leaf of a column, and ``EnumGen`` /
    ``GenUltiNd`` need how many rows fall into each combination of leaves over
    the binned columns.  The index holds those two tallies — one count per
    leaf per column, and, when joint enforcement needs it, one ``Counter``
    entry per distinct leaf combination — so checking a candidate
    generalization costs one lookup per leaf or per combination, never per
    row.  Combinations are keyed by leaf *names*, like pass 1's per-column
    counts: strings hash in C, identity-hashed tree nodes in Python.

    Parameters
    ----------
    trees:
        Domain hierarchy tree of every column in *leaf_counts*.
    leaf_counts:
        Rows per leaf name, per column (the form pass 1 of a streamed protect
        merges); the columns' order is the index's column order.
    combinations:
        Rows per tuple of leaf names, one per column in column order, or
        ``None`` when only the per-column counts are known.
    """

    def __init__(
        self,
        trees: Mapping[str, DomainHierarchyTree],
        leaf_counts: Mapping[str, Mapping[str, int]],
        combinations: Counter | None = None,
    ) -> None:
        self._columns = list(leaf_counts)
        self._trees = _trees_for(trees, self._columns)
        self._leaf_counts = {
            column: {leaf: leaf_counts[column].get(leaf.name, 0) for leaf in tree.leaves()}
            for column, tree in self._trees.items()
        }
        self._combinations = combinations

    @classmethod
    def from_table(
        cls, table: Table, trees: Mapping[str, DomainHierarchyTree], columns: Sequence[str]
    ) -> "ColumnIndex":
        """Count *table*'s rows per leaf and per leaf combination of *columns*.

        Each distinct value of a column is resolved to its leaf once, in order
        of first occurrence (so the first out-of-domain value raises); the
        rows are then tallied without building any per-row list.
        """
        trees = _trees_for(trees, columns)
        raw = table.column_sequences(columns)
        leaf_name_of: dict[str, dict[object, str]] = {}
        leaf_counts: dict[str, Counter] = {}
        for column in columns:
            value_counts = Counter(raw[column])
            names = leaf_name_of[column] = {
                value: trees[column].leaf_for_raw(value).name for value in value_counts
            }
            counts = leaf_counts[column] = Counter()
            for value, rows in value_counts.items():
                counts[names[value]] += rows
        combinations = Counter(
            zip(*(map(leaf_name_of[column].__getitem__, raw[column]) for column in columns))
        )
        return cls(trees, leaf_counts, combinations)

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    @property
    def combinations(self) -> Counter | None:
        """Rows per leaf-name tuple (column order), or ``None`` if not counted."""
        return self._combinations

    def tree(self, column: str) -> DomainHierarchyTree:
        return self._trees[column]

    def leaf_counts(self, column: str) -> dict[DHTNode, int]:
        """Number of rows under every leaf of *column*'s tree."""
        return dict(self._leaf_counts[column])

    def counts_by_column(self) -> dict[str, dict[DHTNode, int]]:
        return {column: dict(counts) for column, counts in self._leaf_counts.items()}

    # --------------------------------------------------------------- bin sizes
    def mono_bin_sizes(self, column: str, generalization: Generalization) -> dict[DHTNode, int]:
        """Bin sizes of one column under a candidate generalization (no empty bins)."""
        sizes: dict[DHTNode, int] = {}
        for leaf, rows in self._leaf_counts[column].items():
            if rows:
                node = generalization.node_for_leaf(leaf)
                sizes[node] = sizes.get(node, 0) + rows
        return sizes

    def _joint_bins(
        self, generalization: MultiColumnGeneralization
    ) -> tuple[list[tuple[str, ...]], dict[tuple[str, ...], int]]:
        """The joint bin of every leaf combination (in counter order), and each bin's size.

        A bin is named by its generalization node in each covered column.
        """
        if self._combinations is None:
            raise ValueError("joint bin sizes need the leaf-combination counts")
        bin_of_leaf: list[tuple[int, dict[str, str]]] = []
        for position, column in enumerate(self._columns):
            if column in generalization:
                node_for_leaf = generalization[column].node_for_leaf
                bins = {leaf.name: node_for_leaf(leaf).name for leaf in self._leaf_counts[column]}
                bin_of_leaf.append((position, bins))
        if not bin_of_leaf:
            raise ValueError("generalization covers none of the indexed columns")
        keys = [
            tuple(bins[leaves[position]] for position, bins in bin_of_leaf)
            for leaves in self._combinations
        ]
        sizes: dict[tuple[str, ...], int] = {}
        for key, rows in zip(keys, self._combinations.values()):
            sizes[key] = sizes.get(key, 0) + rows
        return keys, sizes

    def joint_bin_sizes(self, generalization: MultiColumnGeneralization) -> dict[tuple[str, ...], int]:
        """Bin sizes of the column combination under a candidate generalization."""
        return self._joint_bins(generalization)[1]

    def satisfies_mono(self, column: str, generalization: Generalization, k: int) -> bool:
        return is_k_anonymous(self.mono_bin_sizes(column, generalization), k)

    def satisfies_joint(self, generalization: MultiColumnGeneralization, k: int) -> bool:
        return is_k_anonymous(self.joint_bin_sizes(generalization), k)

    def violating_combinations(
        self, generalization: MultiColumnGeneralization, k: int
    ) -> dict[tuple[str, ...], int]:
        """Rows per leaf combination whose joint bin holds fewer than *k* rows."""
        keys, sizes = self._joint_bins(generalization)
        return {
            leaves: rows
            for (leaves, rows), key in zip(self._combinations.items(), keys)
            if sizes[key] < k
        }


def is_k_anonymous(sizes: Mapping[object, int], k: int) -> bool:
    """Whether every bin in *sizes* holds at least ``k`` records.

    An empty table (no bins) is trivially k-anonymous: there is nothing to
    re-identify.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return all(size >= k for size in sizes.values())
