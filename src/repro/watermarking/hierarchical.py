"""The hierarchical watermarking scheme (Section 5.3, Figure 9).

Embedding
---------

For every selected tuple (Equation 5) and every watermarked column, the
embedder

1. resolves the tuple's current value to its ultimate generalization node,
2. climbs to the corresponding **maximal generalization node**, then
3. walks back *down* the tree, one level at a time: at each level the child
   whose index (within the sorted sibling set) has the mark bit as its least
   significant bit is chosen, until an ultimate generalization node is reached
   again.  That node's value is written back into the cell.

Because the same bit steers the choice at *every* level between the maximal
and the ultimate frontier, each embedding position carries several redundant
copies of its bit — one per level.  This per-level redundancy is exactly what
defeats the generalization attack: generalising the table one level up erases
the lowest level but leaves the copies at all higher levels intact, whereas the
single-level scheme of Section 5.2 loses everything.

Detection
---------

The detector selects the same tuples (it owns k1, k2 and η), resolves each
cell to a node of the tree — wherever an attacker may have moved it — and
walks *up* from that node to the maximal generalization frontier, reading the
parity of the node's index among its siblings at every level.  Per-position
votes are combined by (optionally level-weighted) majority voting, first
within a tuple, then across tuples that map to the same position of the
replicated mark, and finally across the replicated copies of each mark bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.binning.binner import BinnedTable
from repro.crypto.batch import ScalarWatermarkEngine, WatermarkHashEngine
from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree
from repro.telemetry.trace import span as _stage_span
from repro.watermarking.ecc import MarkCode, resolve_code
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark, majority_vote

__all__ = ["EmbeddingReport", "DetectionReport", "DetectionVotes", "HierarchicalWatermarker"]

DEFAULT_COPIES = 4


@dataclass(frozen=True)
class EmbeddingReport:
    """What :meth:`HierarchicalWatermarker.embed` did."""

    watermarked: BinnedTable
    mark: Mark
    copies: int
    columns: tuple[str, ...]
    tuples_selected: int
    cells_embedded: int
    cells_changed: int
    cells_skipped_no_bandwidth: int

    @property
    def wmd_length(self) -> int:
        return len(self.mark) * self.copies


@dataclass(frozen=True)
class DetectionReport:
    """What :meth:`HierarchicalWatermarker.detect` recovered.

    ``code`` is the wire form of the mark code that produced the decision;
    ``corrected_bits`` counts mark bits where that code overruled the plain
    hard-majority decision (always 0 for ``"repetition"``), and
    ``bit_confidence`` is the decoder's per-bit normalized margin in
    ``[0, 1]`` (0.0 for bits with no votes at all).
    """

    mark: Mark
    wmd_bits: tuple[int, ...]
    positions_with_votes: int
    tuples_selected: int
    cells_read: int
    votes_cast: int
    code: str = "repetition"
    corrected_bits: int = 0
    bit_confidence: tuple[float, ...] = ()

    @property
    def coverage(self) -> float:
        """Fraction of replicated-mark positions that received at least one vote."""
        if not self.wmd_bits:
            return 0.0
        return self.positions_with_votes / len(self.wmd_bits)


@dataclass
class DetectionVotes:
    """Partial detection state: per-position tuple votes before majority voting.

    This is the mergeable half of :meth:`HierarchicalWatermarker.detect`.  The
    serial detector collects one ``DetectionVotes`` over the whole table; the
    shard-parallel executor and the streaming ingest collect one per row shard
    (or CSV chunk) and :meth:`merge` them.  Because per-position vote lists
    are appended in row order and the position-level majority vote is a plain
    sum, merging shard votes in shard order reproduces the serial vote lists
    exactly — finalising a merged object is bit-identical to the serial path.
    """

    wmd_length: int
    votes: dict[int, list[int]] = field(default_factory=dict)
    tuples_selected: int = 0
    cells_read: int = 0
    votes_cast: int = 0

    def merge(self, other: "DetectionVotes") -> "DetectionVotes":
        """Fold *other*'s votes into this object (in place; returns self).

        *other* must cover rows that come after this object's rows in table
        order for the merged vote lists to equal the serial ones — the
        position-level vote is order-independent, so this only matters for
        exact list equality in the golden tests.
        """
        if other.wmd_length != self.wmd_length:
            raise ValueError("cannot merge votes collected for different wmd lengths")
        for position, tuple_votes in other.votes.items():
            self.votes.setdefault(position, []).extend(tuple_votes)
        self.tuples_selected += other.tuples_selected
        self.cells_read += other.cells_read
        self.votes_cast += other.votes_cast
        return self


_MISSING = object()


@dataclass
class _Frontiers:
    """Per-column node sets resolved once per embed/detect call.

    Also memoises the pure per-value and per-node lookups of the inner loops
    — value-to-node resolution, the maximal generalization node covering a
    node, sorted sibling/children sets, parity reads — because a table has
    only a handful of distinct generalized values per column while the loops
    visit one selected tuple in ``η`` over up to 100k rows.
    """

    tree: DomainHierarchyTree
    ultimate: list[DHTNode]
    maximal: list[DHTNode]
    ultimate_set: set[DHTNode] = field(init=False)
    maximal_set: set[DHTNode] = field(init=False)
    _ultimate_by_value: dict[object, object] = field(init=False, default_factory=dict)
    _node_by_value: dict[object, DHTNode | None] = field(init=False, default_factory=dict)
    _maximal_by_node: dict[DHTNode, DHTNode | None] = field(init=False, default_factory=dict)
    _children_by_node: dict[DHTNode, list[DHTNode]] = field(init=False, default_factory=dict)
    _siblings_by_node: dict[DHTNode, list[DHTNode]] = field(init=False, default_factory=dict)
    _levels_by_node: dict[DHTNode, tuple[list[int], list[float]]] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.ultimate_set = set(self.ultimate)
        self.maximal_set = set(self.maximal)

    def resolve_ultimate(self, value: object) -> DHTNode:
        """``Val2Nd`` against the ultimate frontier, memoised per value."""
        try:
            hit = self._ultimate_by_value.get(value, _MISSING)
        except TypeError:  # unhashable cell value: fall through uncached
            return self.tree.value_to_node(value, self.ultimate)
        if hit is _MISSING:
            try:
                hit = self.tree.value_to_node(value, self.ultimate)
            except ValueError as error:
                self._ultimate_by_value[value] = error
                raise
            self._ultimate_by_value[value] = hit
        if isinstance(hit, ValueError):
            raise hit
        return hit  # type: ignore[return-value]

    def resolve_cell(self, value: object) -> DHTNode | None:
        """Best-effort value resolution (``None`` for foreign values), memoised."""
        try:
            hit = self._node_by_value.get(value, _MISSING)
        except TypeError:
            return _resolve_value(self.tree, value)
        if hit is _MISSING:
            hit = _resolve_value(self.tree, value)
            self._node_by_value[value] = hit
        return hit

    def maximal_for(self, node: DHTNode) -> DHTNode | None:
        """``MaxGNd``: the maximal generalization node covering *node*."""
        hit = self._maximal_by_node.get(node, _MISSING)
        if hit is _MISSING:
            hit = next(
                (step for step in node.ancestors(include_self=True) if step in self.maximal_set),
                None,
            )
            self._maximal_by_node[node] = hit
        return hit  # type: ignore[return-value]

    def children(self, node: DHTNode) -> list[DHTNode]:
        """Sorted children of *node* (the tree re-sorts on every call)."""
        hit = self._children_by_node.get(node)
        if hit is None:
            hit = self.tree.children(node)
            self._children_by_node[node] = hit
        return hit

    def siblings(self, node: DHTNode) -> list[DHTNode]:
        """Sorted sibling set of *node* (including the node itself)."""
        hit = self._siblings_by_node.get(node)
        if hit is None:
            hit = self.tree.siblings(node)
            self._siblings_by_node[node] = hit
        return hit

    def read_levels(self, node: DHTNode) -> tuple[list[int], list[float]]:
        """Parity bits from *node* up to the maximal frontier, memoised per node.

        Values already at or above the maximal frontier yield nothing (the
        loop of Figure 9 never starts); lower levels are read bottom-up, with
        weights growing toward the top when level weighting is enabled.
        Callers must not mutate the returned lists.
        """
        hit = self._levels_by_node.get(node)
        if hit is not None:
            return hit
        bits: list[int] = []
        current: DHTNode | None = node
        while current is not None and current not in self.maximal_set and current.parent is not None:
            siblings = self.siblings(current)
            bits.append(siblings.index(current) & 1)
            current = current.parent
        if current is None or current not in self.maximal_set:
            # The walk ran past the root without meeting the maximal frontier:
            # the value lies outside the watermarked region (e.g. replaced by
            # an attacker with something above the frontier).
            result: tuple[list[int], list[float]] = ([], [])
        else:
            result = (bits, [float(level + 1) for level in range(len(bits))])
        self._levels_by_node[node] = result
        return result


def _resolve_value(tree: DomainHierarchyTree, value: object) -> DHTNode | None:
    """Map a (possibly attacked) cell value to a tree node, or ``None``."""
    try:
        return tree.value_to_node(value)
    except (ValueError, TypeError):
        return None


class HierarchicalWatermarker:
    """Embeds and detects marks with the hierarchical scheme of Figure 9."""

    def __init__(
        self,
        key: WatermarkKey,
        *,
        columns: Sequence[str] | None = None,
        copies: int = DEFAULT_COPIES,
        level_weighting: bool = False,
        engine: "WatermarkHashEngine | ScalarWatermarkEngine | None" = None,
        code: "MarkCode | str | None" = None,
    ) -> None:
        """
        Parameters
        ----------
        key:
            The secret watermarking key ``(k1, k2, η)``.
        columns:
            Quasi-identifying columns to embed into.  ``None`` means every
            binned column that offers bandwidth (a gap between its ultimate
            and maximal generalization nodes).
        copies:
            Replication factor ``l``: the mark is duplicated ``l`` times into
            ``wmd`` before embedding (Section 5.3).  The detector must use the
            same value.
        level_weighting:
            When true, votes read from higher tree levels get proportionally
            larger weights in the per-tuple majority vote, implementing the
            "copies from a higher level are more reliable" policy of
            Section 5.3.
        engine:
            Keyed-hash engine for selection, positions and permutations.
            ``None`` (the default) builds the batched
            :class:`~repro.crypto.batch.WatermarkHashEngine` — HMAC pads built
            once, idents serialised once per tuple, digests cached across
            embed/detect.  Tests and the scaling benchmark inject the
            bit-identical :class:`~repro.crypto.batch.ScalarWatermarkEngine`
            reference here.  Must be keyed with the same ``(k1, k2, η)``.
        code:
            Mark code (a :class:`~repro.watermarking.ecc.MarkCode`, its wire
            string, or ``None`` for the default ``"repetition"``) used to
            encode the mark into ``wmd`` and decode the collected votes.
            ``"repetition"`` reproduces the seed detector bit-identically.
        """
        if copies < 1:
            raise ValueError("copies must be at least 1")
        self._key = key
        self._columns = tuple(columns) if columns is not None else None
        self._copies = copies
        self._level_weighting = level_weighting
        self._engine = engine if engine is not None else WatermarkHashEngine(key)
        self._code = resolve_code(code)

    @property
    def key(self) -> WatermarkKey:
        return self._key

    @property
    def copies(self) -> int:
        return self._copies

    @property
    def columns(self) -> tuple[str, ...] | None:
        """The configured embedding columns (``None`` = every binned column)."""
        return self._columns

    @property
    def level_weighting(self) -> bool:
        return self._level_weighting

    @property
    def engine(self) -> "WatermarkHashEngine | ScalarWatermarkEngine":
        """The keyed-hash engine driving selection, positions and permutations."""
        return self._engine

    @property
    def code(self) -> MarkCode:
        """The mark code encoding/decoding the replicated-mark channel."""
        return self._code

    @property
    def code_name(self) -> str:
        """Canonical wire string of the configured mark code."""
        return self._code.wire()

    def with_code(self, code: "MarkCode | str | None") -> "HierarchicalWatermarker":
        """A clone decoding with *code*, sharing the (expensive) hash engine.

        Safe at detect time for codes sharing the repetition encoder
        (``repetition`` <-> ``soft``); codes that change the encoding
        (``interleaved``) must match what the data was protected with.
        """
        return type(self)(
            self._key,
            columns=self._columns,
            copies=self._copies,
            level_weighting=self._level_weighting,
            engine=self._engine,
            code=code,
        )

    # ---------------------------------------------------------------- helpers
    def _resolve_columns(self, binned: BinnedTable) -> tuple[str, ...]:
        if self._columns is not None:
            for column in self._columns:
                if column not in binned.quasi_columns:
                    raise KeyError(f"column {column!r} is not a binned quasi-identifying column")
            return self._columns
        return tuple(binned.quasi_columns)

    def _frontiers(self, binned: BinnedTable, columns: Sequence[str]) -> dict[str, _Frontiers]:
        return {
            column: _Frontiers(
                tree=binned.tree(column),
                ultimate=binned.ultimate_node_objects(column),
                maximal=binned.maximal_node_objects(column),
            )
            for column in columns
        }

    def _encode_mark(self, mark: Mark) -> list[int]:
        """Encode *mark* into the ``wmd`` channel, enforcing the bandwidth contract."""
        wmd = self._code.encode(list(mark.bits), self._copies)
        expected = len(mark) * self._copies
        if len(wmd) != expected:
            raise ValueError(
                f"mark code {self._code.wire()!r} encoded {len(wmd)} channel bits, "
                f"expected {expected} (= {len(mark)} bits x {self._copies} copies)"
            )
        return wmd

    def _position(self, ident: object, column: str, wmd_length: int) -> int:
        """Position of this cell's bit within the replicated mark ``wmd``."""
        return self._engine.position(ident, column, wmd_length)

    def _base_index(self, ident: object, column: str, level: int, size: int) -> int:
        """The keyed base index ``H(t.ident, k2) mod |S|`` of the permutation."""
        return self._engine.base_index(ident, column, level, size)

    @staticmethod
    def _encode_parity(base_index: int, bit: int, size: int) -> int:
        """``SetµBit``: force the index parity to *bit*, staying inside the set.

        With an odd sibling-set size the parity-adjusted index can fall one
        past the end; stepping back by two preserves the parity.  A singleton
        set cannot encode anything — index 0 is returned and the level simply
        carries no information (the per-level and per-copy redundancy absorbs
        it).
        """
        if size == 1:
            return 0
        desired = (base_index & ~1) | bit
        if desired >= size:
            desired -= 2
        if desired < 0:  # pragma: no cover - unreachable for size >= 2
            desired = base_index
        return desired

    # -------------------------------------------------------------- embedding
    def embed(self, binned: BinnedTable, mark: Mark) -> EmbeddingReport:
        """Embed *mark* into a copy of *binned* (the original is left untouched)."""
        with _stage_span("protect.embed", rows=len(binned.table)):
            return self._embed(binned, mark)

    def _embed(self, binned: BinnedTable, mark: Mark) -> EmbeddingReport:
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
                    # The cell does not carry an ultimate-generalization value
                    # (should not happen right after binning); leave it alone.
                    cells_skipped += 1
                    continue
                maximal = front.maximal_for(current)
                if maximal is None or maximal is current:
                    # No gap between the ultimate and maximal frontier for
                    # this branch: no bandwidth, nothing to embed.
                    cells_skipped += 1
                    continue
                bit = wmd[coords.position(column)]
                target = maximal
                level = 0
                while target not in front.ultimate_set:
                    siblings = front.children(target)
                    if not siblings:
                        # Reached a leaf that is not an ultimate node; should
                        # not happen for valid frontiers, but never loop.
                        break
                    base = coords.base_index(column, level, len(siblings))
                    target = siblings[self._encode_parity(base, bit, len(siblings))]
                    level += 1
                if target in front.ultimate_set:
                    cells_embedded += 1
                    if row[column] != target.value:
                        cells_changed += 1
                        row = table.mutable_row(index)
                        row[column] = target.value
                else:  # pragma: no cover - defensive, see break above
                    cells_skipped += 1

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
        """Recover a mark of *mark_length* bits from a (possibly attacked) table."""
        return self.finalize_votes(self.collect_votes(binned, mark_length), mark_length)

    def collect_votes(self, binned: BinnedTable, mark_length: int) -> DetectionVotes:
        """The vote-collection half of :meth:`detect`, over *binned*'s rows only.

        Returns the per-position tuple votes without running the final
        majority votes, so callers holding several row shards (or streamed
        chunks) of one table can :meth:`DetectionVotes.merge` them and
        :meth:`finalize_votes` once — bit-identically to a serial
        :meth:`detect` over the whole table.
        """
        with _stage_span("detect.collect", rows=len(binned.table)):
            return self._collect_votes(binned, mark_length)

    def _collect_votes(self, binned: BinnedTable, mark_length: int) -> DetectionVotes:
        if mark_length < 1:
            raise ValueError("mark_length must be at least 1")
        columns = self._resolve_columns(binned)
        frontiers = self._frontiers(binned, columns)
        wmd_length = mark_length * self._copies
        collected = DetectionVotes(wmd_length=wmd_length)
        votes = collected.votes

        tuples_selected = 0
        cells_read = 0
        votes_cast = 0

        table = binned.table
        idents = binned.ident_values()
        buffers = table.column_sequences(columns)
        for index, coords in enumerate(self._engine.tuple_coordinates(idents, columns, wmd_length)):
            if coords is None:
                continue
            tuples_selected += 1
            for column in columns:
                front = frontiers[column]
                node = front.resolve_cell(buffers[column][index])
                if node is None:
                    continue
                bits, weights = front.read_levels(node)
                if not bits:
                    continue
                cells_read += 1
                position = coords.position(column)
                # Ties among levels are broken in favour of the highest level
                # read (the copy "from a higher level is more reliable",
                # Section 5.3); bits are collected bottom-up, so that is the
                # last entry.
                tuple_vote = majority_vote(
                    bits,
                    weights=weights if self._level_weighting else None,
                    tie_value=bits[-1],
                )
                votes.setdefault(position, []).append(tuple_vote)
                votes_cast += len(bits)

        collected.tuples_selected = tuples_selected
        collected.cells_read = cells_read
        collected.votes_cast = votes_cast
        return collected

    def finalize_votes(self, collected: DetectionVotes, mark_length: int) -> DetectionReport:
        """The majority-voting half of :meth:`detect`: votes -> report."""
        with _stage_span("detect.finalize", positions=len(collected.votes)):
            return self._finalize_votes(collected, mark_length)

    def _finalize_votes(self, collected: DetectionVotes, mark_length: int) -> DetectionReport:
        wmd_length = mark_length * self._copies
        if collected.wmd_length != wmd_length:
            raise ValueError(
                f"votes were collected for wmd length {collected.wmd_length}, "
                f"expected {wmd_length} (= {mark_length} bits x {self._copies} copies)"
            )
        votes = collected.votes
        decoded = self._code.decode(votes, mark_length, self._copies)

        return DetectionReport(
            mark=Mark.from_bits(decoded.mark_bits),
            wmd_bits=decoded.wmd_bits,
            positions_with_votes=len(votes),
            tuples_selected=collected.tuples_selected,
            cells_read=collected.cells_read,
            votes_cast=collected.votes_cast,
            code=self._code.wire(),
            corrected_bits=decoded.corrected_bits,
            bit_confidence=decoded.bit_confidence,
        )

    @staticmethod
    def _resolve_cell(tree: DomainHierarchyTree, value: object) -> DHTNode | None:
        """Map a (possibly attacked) cell value to a tree node, or ``None``."""
        return _resolve_value(tree, value)

    def _read_levels(self, front: _Frontiers, node: DHTNode) -> tuple[list[int], list[float]]:
        """Read the index parity at every level from *node* up to the maximal frontier."""
        return front.read_levels(node)
