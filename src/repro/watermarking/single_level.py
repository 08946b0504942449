"""Single-level watermarking (Section 5.2) — the vulnerable baseline.

The direct way to exploit the permutation bandwidth is to embed each bit only
at the level of the ultimate generalization node and its siblings: the target
sibling's index parity encodes the bit (descending further only when the
chosen sibling happens not to be an ultimate node, to keep the generalization
valid).  Detection reads the parity of the cell's node among its siblings —
one level, one vote.

The paper introduces this scheme to show why it is **not** enough: the
*generalization attack* — generalising every value one level up, which the
usage-metrics gap still allows — wipes out the single encoding level without
needing the watermarking key.  The hierarchical scheme of
:mod:`repro.watermarking.hierarchical` exists precisely to defeat that attack,
and the ablation benchmark compares the two head-to-head.
"""

from __future__ import annotations

from repro.binning.binner import BinnedTable
from repro.dht.node import DHTNode
from repro.watermarking.hierarchical import (
    DetectionReport,
    DetectionVotes,
    EmbeddingReport,
    HierarchicalWatermarker,
    _Frontiers,
)
from repro.watermarking.mark import Mark

__all__ = ["SingleLevelWatermarker"]


class SingleLevelWatermarker(HierarchicalWatermarker):
    """Sion-style categorical embedding at a single tree level.

    Shares tuple selection, replication, majority voting and the batched hash
    engine with the hierarchical scheme; only the embedding primitive and the
    per-cell read differ.
    """

    # -------------------------------------------------------------- embedding
    def embed(self, binned: BinnedTable, mark: Mark) -> EmbeddingReport:
        columns = self._resolve_columns(binned)
        frontiers = self._frontiers(binned, columns)
        watermarked = binned.lazy_copy()
        wmd = self._encode_mark(mark)

        tuples_selected = 0
        cells_embedded = 0
        cells_changed = 0
        cells_skipped = 0

        table = watermarked.table
        idents = watermarked.ident_values()
        for index, coords in enumerate(self._engine.tuple_coordinates(idents, columns, len(wmd))):
            if coords is None:
                continue
            tuples_selected += 1
            row = table[index]
            for column in columns:
                front = frontiers[column]
                try:
                    current = front.resolve_ultimate(row[column])
                except ValueError:
                    cells_skipped += 1
                    continue
                siblings = front.siblings(current)
                if len(siblings) < 2:
                    cells_skipped += 1
                    continue
                bit = wmd[coords.position(column)]
                base = coords.base_index(column, 0, len(siblings))
                target = siblings[self._encode_parity(base, bit, len(siblings))]
                # Keep the generalization valid: if the chosen sibling is not
                # an ultimate node, descend (keyed, without parity coding)
                # until one is reached.
                level = 1
                while target not in front.ultimate_set and not target.is_leaf:
                    children = front.children(target)
                    target = children[coords.base_index(column, level, len(children))]
                    level += 1
                if target not in front.ultimate_set:
                    cells_skipped += 1
                    continue
                cells_embedded += 1
                if row[column] != target.value:
                    cells_changed += 1
                    row = table.mutable_row(index)
                    row[column] = target.value

        return EmbeddingReport(
            watermarked=watermarked,
            mark=mark,
            copies=self._copies,
            columns=columns,
            tuples_selected=tuples_selected,
            cells_embedded=cells_embedded,
            cells_changed=cells_changed,
            cells_skipped_no_bandwidth=cells_skipped,
        )

    # -------------------------------------------------------------- detection
    def detect(self, binned: BinnedTable, mark_length: int) -> DetectionReport:
        if mark_length < 1:
            raise ValueError("mark_length must be at least 1")
        columns = self._resolve_columns(binned)
        frontiers = self._frontiers(binned, columns)
        wmd_length = mark_length * self._copies
        collected = DetectionVotes(wmd_length=wmd_length)
        votes = collected.votes

        table = binned.table
        idents = binned.ident_values()
        for index, coords in enumerate(self._engine.tuple_coordinates(idents, columns, wmd_length)):
            if coords is None:
                continue
            collected.tuples_selected += 1
            row = table[index]
            for column in columns:
                front = frontiers[column]
                node = front.resolve_cell(row[column])
                if node is None:
                    continue
                vote = self._read_single_level(front, node)
                if vote is None:
                    continue
                collected.cells_read += 1
                collected.votes_cast += 1
                votes.setdefault(coords.position(column), []).append(vote)

        return self.finalize_votes(collected, mark_length)

    @staticmethod
    def _read_single_level(front: _Frontiers, node: DHTNode) -> int | None:
        """Read the single-level parity of *node* among its siblings."""
        if node.parent is None:
            return None
        siblings = front.siblings(node)
        if len(siblings) < 2:
            return None
        return siblings.index(node) & 1
