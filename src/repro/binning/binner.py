"""The complete binning agent (Figure 8 of the paper).

``Binning(tbl, ultigen)`` does two things to every tuple:

1. the identifying columns are replaced one-to-one by their encryption
   ``E(value)`` — the data stay traceable to the holder (who owns the key)
   and give the watermarking algorithm a stable, secret selection handle, and
2. the quasi-identifying columns are replaced by the value of their ultimate
   generalization node.

Binning has one planner, :meth:`BinningAgent.plan_from_counts`.  From row
counts alone (a :class:`~repro.binning.kanonymity.ColumnIndex`) it derives
the maximal generalization nodes (usage metrics), the minimal ones
(mono-attribute binning) and the ultimate ones (the minimal ones under MONO
enforcement, multi-attribute binning under JOINT) into a :class:`BinPlan`.
:func:`rewrite_table` then applies the plan to the rows.  Both callers run
exactly these two steps: :meth:`BinningAgent.bin` counts a whole table in
memory and returns a :class:`BinningResult` (the :class:`BinnedTable` plus
the information-loss bookkeeping the experiments report); the service's
streamed protect counts leaves in its first pass and rewrites chunk by chunk
in its second.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.binning.kanonymity import ColumnIndex, EnforcementMode, KAnonymitySpec
from repro.binning.mono import gen_min_nodes
from repro.binning.multi import DEFAULT_ENUMERATION_BUDGET, gen_ultimate_nodes
from repro.crypto.cipher import FieldEncryptor
from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree
from repro.metrics.information_loss import table_information_loss
from repro.metrics.usage_metrics import UsageMetrics
from repro.relational.table import Row, Table, TypedColumn
from repro.telemetry.trace import span as _stage_span

__all__ = [
    "BinnedTable",
    "BinningResult",
    "BinningAgent",
    "BinPlan",
    "rewrite_table",
]


_MISSING = object()


def rewrite_table(
    table: Table,
    schema,
    encryptor: FieldEncryptor,
    ultimate: MultiColumnGeneralization,
) -> Table:
    """``Binning(tbl, ultigen)`` over a whole table, column at a time.

    Each identifying column goes through :meth:`FieldEncryptor.encrypt_many`
    in one sweep, each generalised column is rewritten with a
    per-distinct-value memo (a bin by construction maps many raw values to
    one node value), and untouched columns are copied wholesale.  The input
    table is never mutated.  The single source of the rewrite, shared by
    :meth:`BinningAgent.bin` and the protect pool workers
    (:func:`repro.service.runners.protect_raw_chunk`, encryptor rebuilt from
    shipped key material) — which keeps a runner-parallel protect
    byte-identical to the serial path by construction.
    """
    with _stage_span("protect.encrypt_generalize", rows=len(table)):
        return _rewrite_table(table, schema, encryptor, ultimate)


def _rewrite_table(
    table: Table,
    schema,
    encryptor: FieldEncryptor,
    ultimate: MultiColumnGeneralization,
) -> Table:
    names = schema.column_names
    source = table.column_sequences(names)
    identifying = {column.name for column in schema.identifying_columns}
    columns: dict[str, object] = {}
    for name in names:
        values = source[name]
        if name in identifying:
            columns[name] = encryptor.encrypt_many(values)
        elif name in ultimate:
            generalize = ultimate[name].generalize
            memo: dict[object, object] = {}
            get = memo.get
            generalized: list[object] = []
            append = generalized.append
            for value in values:
                try:
                    result = get(value, _MISSING)
                except TypeError:  # unhashable cell: generalize without caching
                    append(generalize(value))
                    continue
                if result is _MISSING:
                    result = memo[value] = generalize(value)
                append(result)
            columns[name] = generalized
        else:
            columns[name] = TypedColumn.from_values(list(values))
    return Table.from_columns(schema, columns)


@dataclass
class BinnedTable:
    """A binned table plus the metadata the watermarking agent needs.

    The watermarking algorithm (Figure 9) takes, besides the table itself, the
    domain hierarchy trees, the maximal generalization nodes and the ultimate
    generalization nodes; they are all carried here so the two agents can be
    composed without re-deriving anything.
    """

    table: Table
    trees: dict[str, DomainHierarchyTree]
    identifying_columns: tuple[str, ...]
    quasi_columns: tuple[str, ...]
    ultimate_nodes: dict[str, tuple[str, ...]]
    maximal_nodes: dict[str, tuple[str, ...]]
    minimal_nodes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    k: int = 1

    # ------------------------------------------------------------ conveniences
    def tree(self, column: str) -> DomainHierarchyTree:
        try:
            return self.trees[column]
        except KeyError:
            raise KeyError(f"no domain hierarchy tree for column {column!r}") from None

    def ultimate_generalization(self, column: str) -> Generalization:
        """The column's ultimate generalization as a :class:`Generalization`."""
        return Generalization.from_node_names(self.tree(column), self.ultimate_nodes[column])

    def maximal_generalization(self, column: str) -> Generalization:
        return Generalization.from_node_names(self.tree(column), self.maximal_nodes[column])

    def ultimate_generalizations(self) -> MultiColumnGeneralization:
        return MultiColumnGeneralization(
            {column: self.ultimate_generalization(column) for column in self.quasi_columns}
        )

    def ultimate_node_objects(self, column: str) -> list[DHTNode]:
        tree = self.tree(column)
        return [tree.node(name) for name in self.ultimate_nodes[column]]

    def maximal_node_objects(self, column: str) -> list[DHTNode]:
        tree = self.tree(column)
        return [tree.node(name) for name in self.maximal_nodes[column]]

    def ident_value(self, row: Row) -> object:
        """The (encrypted) identifying value of *row* used by Equation (5).

        With a single identifying column the value itself is returned, with
        several a tuple of them.
        """
        values = tuple(row[column] for column in self.identifying_columns)
        return values[0] if len(values) == 1 else values

    def ident_values(self) -> list[object]:
        """:meth:`ident_value` for every row, in one bulk projection.

        The batched embed/detect sweeps feed this list straight into
        :meth:`repro.crypto.batch.WatermarkHashEngine.tuple_coordinates`.
        """
        if not self.identifying_columns:
            return [self.ident_value(row) for row in self.table]
        columns = self.table.column_sequences(self.identifying_columns)
        if len(self.identifying_columns) == 1:
            return list(columns[self.identifying_columns[0]])
        return list(zip(*(columns[name] for name in self.identifying_columns)))

    # ------------------------------------------------------------------- bins
    def bin_sizes(self, column: str) -> dict[object, int]:
        """Per-attribute bin sizes (one bin per distinct generalized value)."""
        return self.table.value_counts(column)

    def joint_bin_sizes(self) -> dict[tuple[object, ...], int]:
        """Bin sizes over the combination of all binned columns."""
        return self.table.group_by_count(list(self.quasi_columns))

    def lazy_copy(self) -> "BinnedTable":
        """Copy-on-write copy: the table's columns are shared until mutated.

        The attack simulators and the embedder work on a copy of the table;
        sharing it until the first write keeps the copy itself O(1).
        Mutations must go through :meth:`repro.relational.table.Table.mutable_row`
        or :meth:`~repro.relational.table.Table.set_cells`.
        """
        return replace(self, table=self.table.lazy_copy())

    def slice(self, start: int, stop: int) -> "BinnedTable":
        """A shard over rows ``[start, stop)`` sharing the frontier metadata.

        The row shards the shard-parallel executor distributes: the underlying
        :meth:`Table.slice_view` holds just that range's cells, and the
        frontier metadata (trees, ultimate/maximal nodes) is identical by
        construction, so a detect over the shard reads exactly the votes the
        serial detect reads for those rows.
        """
        return replace(self, table=self.table.slice_view(start, stop))

    def copy(self) -> "BinnedTable":
        """Deep copy of the table (attacks mutate it); the metadata is shared, never mutated."""
        return replace(self, table=self.table.copy())


@dataclass(frozen=True)
class BinPlan:
    """The generalizations binning will apply, derived from row counts alone.

    A plan separates the *global* half of binning (frontier derivation, which
    needs only the counts of a :class:`~repro.binning.kanonymity.ColumnIndex`)
    from the *per-row* half (encrypt + generalise, which is embarrassingly
    streamable).  :meth:`BinningAgent.bin` counts a whole table; the
    service's streaming ingest counts leaves in a first constant-memory pass.
    Either way one plan is built, then the rows are rewritten.
    """

    columns: tuple[str, ...]
    ultimate: MultiColumnGeneralization
    maximal: dict[str, tuple[str, ...]]
    minimal: MultiColumnGeneralization
    k: int
    used_fallback: bool

    def metadata_for(self, trees: Mapping[str, DomainHierarchyTree]) -> dict[str, object]:
        """The :class:`BinnedTable` metadata fields this plan determines."""
        return {
            "trees": {column: trees[column] for column in self.columns},
            "quasi_columns": self.columns,
            "ultimate_nodes": {column: self.ultimate[column].node_names for column in self.columns},
            "maximal_nodes": dict(self.maximal),
            "minimal_nodes": {column: self.minimal[column].node_names for column in self.columns},
            "k": self.k,
        }


@dataclass(frozen=True)
class BinningResult:
    """Output of :meth:`BinningAgent.bin`."""

    binned: BinnedTable
    information_losses: dict[str, float]
    normalized_information_loss: float
    mono_information_losses: dict[str, float]
    mono_normalized_information_loss: float
    used_fallback: bool


class BinningAgent:
    """Drives binning end to end (the left half of Figure 2)."""

    def __init__(
        self,
        trees: Mapping[str, DomainHierarchyTree],
        usage_metrics: UsageMetrics,
        k_spec: KAnonymitySpec,
        encryption_key: bytes | str,
        *,
        enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
    ) -> None:
        self._trees = dict(trees)
        self._usage_metrics = usage_metrics
        self._k_spec = k_spec
        self._encryptor = FieldEncryptor(encryption_key)
        self._enumeration_budget = enumeration_budget

    @property
    def k_spec(self) -> KAnonymitySpec:
        return self._k_spec

    @property
    def usage_metrics(self) -> UsageMetrics:
        return self._usage_metrics

    # -------------------------------------------------------------------- API
    def bin(self, table: Table) -> BinningResult:
        """Bin *table* per the k-anonymity specification and usage metrics.

        Counts the table, plans from the counts (:meth:`plan_from_counts`)
        and rewrites every row (:func:`rewrite_table`).
        """
        counts = ColumnIndex.from_table(table, self._trees, self._k_spec.resolve_columns(table))
        plan = self.plan_from_counts(counts)
        binned = BinnedTable(
            table=rewrite_table(table, table.schema, self._encryptor, plan.ultimate),
            identifying_columns=tuple(column.name for column in table.schema.identifying_columns),
            **plan.metadata_for(self._trees),
        )
        counts_by_column = counts.counts_by_column()
        losses = plan.ultimate.information_losses(counts_by_column)
        mono_losses = plan.minimal.information_losses(counts_by_column)
        return BinningResult(
            binned=binned,
            information_losses=losses,
            normalized_information_loss=table_information_loss(losses),
            mono_information_losses=mono_losses,
            mono_normalized_information_loss=table_information_loss(mono_losses),
            used_fallback=plan.used_fallback,
        )

    def plan_from_counts(self, counts: ColumnIndex) -> BinPlan:
        """Derive the binning plan of *counts*' columns from their row counts.

        The maximal frontier comes from the usage metrics and the minimal one
        from ``GenMinNd`` (Figure 5), both from the per-leaf counts.  Under
        MONO enforcement the minimal frontier is the ultimate one; under
        JOINT, ``GenUltiNd`` (Figure 7) picks it from the leaf-combination
        counts, which *counts* must then carry.
        """
        joint = self._k_spec.mode is EnforcementMode.JOINT
        if joint and counts.combinations is None:
            raise ValueError("joint enforcement needs the leaf-combination counts of the table")
        columns = tuple(counts.columns)
        k = self._k_spec.effective_k
        maximal: dict[str, list[DHTNode]] = {}
        minimal: dict[str, list[DHTNode]] = {}
        for column in columns:
            tree = counts.tree(column)
            leaf_counts = counts.leaf_counts(column)
            maximal[column] = self._usage_metrics.maximal_nodes(column, tree, leaf_counts)
            minimal[column] = gen_min_nodes(tree, maximal[column], leaf_counts, k)
        mono = MultiColumnGeneralization(
            {column: Generalization(counts.tree(column), minimal[column]) for column in columns}
        )
        ultimate, used_fallback = mono, False
        if joint:
            outcome = gen_ultimate_nodes(
                counts, minimal, maximal, k, enumeration_budget=self._enumeration_budget
            )
            ultimate, used_fallback = outcome.generalization, outcome.used_fallback
        return BinPlan(
            columns=columns,
            ultimate=ultimate,
            maximal={column: tuple(node.name for node in maximal[column]) for column in columns},
            minimal=mono,
            k=self._k_spec.k,
            used_fallback=used_fallback,
        )

    def decrypt_identifier(self, token: str) -> str:
        """Decrypt an identifying-column token (owner-side, for dispute resolution)."""
        return self._encryptor.decrypt(token)
