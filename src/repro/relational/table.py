"""The relational table the protection framework operates on.

A :class:`Table` couples a :class:`~repro.relational.schema.TableSchema` with
an ordered set of rows, stored column by column: a :class:`ColumnStore` holds
one :class:`TypedColumn` per schema field (``array('q')`` for int cells,
``array('d')`` for float cells, a plain list for strings / intervals / mixed
values).  The class offers the operations the protection framework and the
attack simulators need — nothing more, nothing less:

* insertion / deletion / in-place update,
* projection of one or several columns,
* group-by counting (bin sizes for the k-anonymity checks),
* deep **and copy-on-write** copies (attacks operate on copies of the
  outsourced table),
* CSV round-trips.

Rows come back as :class:`ColumnRow` views that read and write the column
buffers and compare like the ``dict`` rows they stand for; per-column hot
paths skip them and read the raw buffers through :meth:`Table.column_sequences`.

Two invariants govern the design:

* **Exact cell types.**  Typed columns keep every cell's exact type (``30``
  stays ``int``, ``2.5`` stays ``float``; a type mismatch spills the column to
  a plain object list rather than coercing), and :class:`CsvParsePlan`
  decodes a column at a time to the values and exact types of
  ``csv.DictReader`` + :func:`~repro.relational.io.parse_row`, so every hash
  and CSV byte downstream is a function of the values alone.
  ``tests/relational/test_columnar.py`` holds protect / detect / attack
  outputs to digests pinned from the list-of-dicts implementation this class
  replaced, and ``tests/relational/test_csv_decode.py`` the decode to that
  reference parse.
* **Copy-on-write at store granularity.**  :meth:`Table.lazy_copy` shares
  the whole column store; the first mutation through either table's API
  copies it once.  Code that writes through a row view obtained by
  iteration bypasses the mechanism — use :meth:`Table.mutable_row` whenever
  the table may be a lazy copy.
"""

from __future__ import annotations

import csv
import itertools
from array import array
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.relational.io import CsvRecordError, coerce_numeric_cell
from repro.relational.schema import ColumnType, TableSchema

__all__ = [
    "Row",
    "Table",
    "TypedColumn",
    "ColumnStore",
    "ColumnRow",
    "CsvParsePlan",
    "chunk_record_line",
]

Row = dict[str, object]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class TypedColumn:
    """One column of cells with a storage kind decided by the data.

    ``kind`` is ``"q"`` (int64 array), ``"d"`` (float64 array), ``"o"``
    (plain object list) or ``None`` while the column is still empty.  The
    first appended value decides the kind; a later value of a different exact
    type (or an int outside the 64-bit range) *spills* the column to an
    object list, so every stored value is exactly the value inserted.
    ``bool`` deliberately spills (``array('q')`` would silently turn ``True``
    into ``1``).
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind: str | None = None, data: "array | list | None" = None) -> None:
        self.kind = kind
        self.data = data if data is not None else []

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "TypedColumn":
        """Bulk constructor: one type scan, then a single array fill."""
        cells = values if isinstance(values, list) else list(values)
        if not cells:
            return cls()
        first = type(cells[0])
        if first is int and all(type(v) is int for v in cells):
            try:
                return cls("q", array("q", cells))
            except OverflowError:
                pass
        elif first is float and all(type(v) is float for v in cells):
            return cls("d", array("d", cells))
        return cls("o", cells)

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[object]:
        return iter(self.data)

    def __getitem__(self, index: int) -> object:
        return self.data[index]

    def _spill(self) -> None:
        self.data = list(self.data)
        self.kind = "o"

    def append(self, value: object) -> None:
        kind = self.kind
        vtype = type(value)
        if kind is None:
            if vtype is int and _INT64_MIN <= value <= _INT64_MAX:
                self.kind, self.data = "q", array("q", (value,))
            elif vtype is float:
                self.kind, self.data = "d", array("d", (value,))
            else:
                self.kind = "o"
                self.data.append(value)
            return
        if kind == "q":
            if vtype is int:
                try:
                    self.data.append(value)
                    return
                except OverflowError:
                    pass
        elif kind == "d":
            if vtype is float:
                self.data.append(value)
                return
        else:
            self.data.append(value)
            return
        self._spill()
        self.data.append(value)

    def __setitem__(self, index: int, value: object) -> None:
        kind = self.kind
        vtype = type(value)
        if kind == "q" and vtype is int:
            try:
                self.data[index] = value
                return
            except OverflowError:
                pass
        elif kind == "d" and vtype is float:
            self.data[index] = value
            return
        elif kind == "o":
            self.data[index] = value
            return
        else:
            # Empty (kind None) columns have no valid index; let the
            # underlying list raise.
            if kind is None:
                self.data[index] = value
                return
        self._spill()
        self.data[index] = value

    def tolist(self) -> list[object]:
        data = self.data
        return data.tolist() if isinstance(data, array) else list(data)

    def copy(self) -> "TypedColumn":
        return TypedColumn(self.kind, self.data[:])

    def take(self, indices: Sequence[int]) -> "TypedColumn":
        """A new column holding ``data[i]`` for each index, same kind."""
        data = self.data
        if isinstance(data, array):
            return TypedColumn(self.kind, array(data.typecode, (data[i] for i in indices)))
        return TypedColumn(self.kind if data else None, [data[i] for i in indices])

    def slice(self, start: int, stop: int) -> "TypedColumn":
        return TypedColumn(self.kind, self.data[start:stop])


class ColumnStore:
    """A set of equally long :class:`TypedColumn` buffers, one per field."""

    __slots__ = ("names", "columns", "row_count")

    def __init__(
        self,
        names: Sequence[str],
        columns: dict[str, TypedColumn] | None = None,
        row_count: int = 0,
    ) -> None:
        self.names = tuple(names)
        self.columns = (
            columns if columns is not None else {name: TypedColumn() for name in self.names}
        )
        self.row_count = row_count

    def append_row(self, row: Mapping[str, object]) -> None:
        for name in self.names:
            self.columns[name].append(row[name])
        self.row_count += 1

    def copy(self) -> "ColumnStore":
        return ColumnStore(
            self.names,
            {name: column.copy() for name, column in self.columns.items()},
            self.row_count,
        )

    def take(self, indices: Sequence[int]) -> "ColumnStore":
        return ColumnStore(
            self.names,
            {name: column.take(indices) for name, column in self.columns.items()},
            len(indices),
        )

    def slice(self, start: int, stop: int) -> "ColumnStore":
        taken = {name: column.slice(start, stop) for name, column in self.columns.items()}
        length = len(range(*slice(start, stop).indices(self.row_count)))
        return ColumnStore(self.names, taken, length)


class ColumnRow:
    """A dict-like view of one row of a :class:`ColumnStore`.

    Reads and writes go straight to the column buffers, so the view behaves
    like a row dict — including ``dict == view`` comparisons
    (``dict.__eq__`` defers to the reflected operator).  A view stays bound
    to the store it was created from: after a copy-on-write store swap it
    keeps reading the *old* buffers, so a view taken before
    :meth:`Table.mutable_row` never sees that row's later writes.
    """

    __slots__ = ("_store", "_index")

    def __init__(self, store: ColumnStore, index: int) -> None:
        self._store = store
        self._index = index

    def __getitem__(self, name: str) -> object:
        return self._store.columns[name][self._index]

    def __setitem__(self, name: str, value: object) -> None:
        columns = self._store.columns
        if name not in columns:
            raise KeyError(name)
        columns[name][self._index] = value

    def __contains__(self, name: object) -> bool:
        return name in self._store.columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.names)

    def __len__(self) -> int:
        return len(self._store.names)

    def keys(self) -> tuple[str, ...]:
        return self._store.names

    def values(self) -> list[object]:
        index = self._index
        columns = self._store.columns
        return [columns[name][index] for name in self._store.names]

    def items(self) -> list[tuple[str, object]]:
        index = self._index
        columns = self._store.columns
        return [(name, columns[name][index]) for name in self._store.names]

    def get(self, name: str, default: object = None) -> object:
        column = self._store.columns.get(name)
        return default if column is None else column[self._index]

    def update(self, other: Mapping[str, object] = (), **kwargs: object) -> None:
        items = other.items() if hasattr(other, "items") else other
        for name, value in items:
            self[name] = value
        for name, value in kwargs.items():
            self[name] = value

    def copy(self) -> Row:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, ColumnRow)):
            if len(other) != len(self):
                return False
            try:
                return all(other[name] == self[name] for name in self._store.names)
            except KeyError:
                return False
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like a row dict

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return repr(dict(self.items()))


def _decode_numeric(name: str, texts: Sequence[str]) -> list[object]:
    """The cells of numeric column *name*, each distinct text coerced once.

    Distinct texts are coerced in first-occurrence order, so the first one
    that fails is also the column's earliest failing record, raised as a
    :class:`~repro.relational.io.CsvRecordError` at that record.  A result is
    shared between the cells that spell it only when it equals itself:
    every ``nan`` cell gets its own float, as a per-cell parse gives it
    (containers match keys by identity before ``==``, so one shared NaN
    would merge in a ``Counter``).
    """
    distinct = dict.fromkeys(texts)
    memo: dict[str, object] = {}
    for text in distinct:
        try:
            value = coerce_numeric_cell(text)
        except ValueError as error:
            raise CsvRecordError(f"column {name!r}: {error}", record=texts.index(text)) from None
        if value == value:
            memo[text] = value
    if len(memo) == len(distinct):
        return list(map(memo.__getitem__, texts))
    return [memo[text] if text in memo else coerce_numeric_cell(text) for text in texts]


class CsvParsePlan:
    """Positional CSV parsing straight into columns, a column at a time.

    Mirrors ``csv.DictReader`` + :func:`repro.relational.io.parse_row`
    exactly: fieldnames come from the first record with duplicates resolved
    last-wins, blank records are skipped, short records pad missing cells
    with the reader's ``restval`` (``None``, i.e. the text ``"None"``),
    extra cells are ignored, and a schema column absent from the header
    raises the same ``ValueError`` the dict path raises.  No per-row dict is
    built: each column's texts come out of the records in one C-level pass,
    and a numeric column coerces each distinct text once.
    """

    __slots__ = ("schema", "fields", "width")

    def __init__(self, fieldnames: Sequence[str], schema: TableSchema) -> None:
        positions: dict[str, int] = {}
        for position, name in enumerate(fieldnames):
            positions[name] = position  # duplicate header: last occurrence wins
        self.schema = schema
        self.fields = [
            (column.name, positions.get(column.name), column.ctype is ColumnType.NUMERIC)
            for column in schema
        ]
        present = [position for _, position, _ in self.fields if position is not None]
        # Records shorter than this get restval cells, as DictReader gives them.
        self.width = max(present, default=-1) + 1

    def parse(self, records: Iterable[list[str]]) -> "Table":
        """A new table of the non-blank *records*.

        A record that does not parse raises
        :class:`~repro.relational.io.CsvRecordError` carrying its 0-based
        index among the non-blank records: the earliest failing record, and
        within it the first failing column in schema order.
        """
        rows = list(filter(None, records))
        width = self.width
        if rows and min(map(len, rows)) < width:
            rows = [row + ["None"] * (width - len(row)) for row in rows]
        columns: dict[str, Sequence[object]] = {}
        failure: CsvRecordError | None = None
        for name, position, numeric in self.fields:
            try:
                if position is None and rows:
                    raise CsvRecordError(f"CSV row is missing column {name!r}", record=0)
                # One C-level pass per column; with no rows, a missing column is empty too.
                cells = list(map(itemgetter(position), rows))
                columns[name] = _decode_numeric(name, cells) if numeric else cells
            except CsvRecordError as error:
                # Schema order: a later column wins only at an earlier record.
                if failure is None or error.record < failure.record:
                    failure = error
        if failure is not None:
            raise failure
        return Table.from_columns(self.schema, columns)


class Table:
    """An ordered collection of rows conforming to a schema, stored by column.

    Rows come back as :class:`ColumnRow` views; ``column_sequences`` exposes
    the raw buffers to per-column hot paths.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[Mapping[str, object]] | None = None) -> None:
        self._schema = schema
        self._store = ColumnStore(schema.column_names)
        # True while the store's buffers are shared with another table
        # (lazy_copy); the first mutation copies the store.
        self._shared = False
        if rows is not None:
            self.insert_many(rows)

    # ------------------------------------------------------------- properties
    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def rows(self) -> list[ColumnRow]:
        """Row views over the store (see :class:`ColumnRow` for semantics)."""
        store = self._store
        return [ColumnRow(store, index) for index in range(store.row_count)]

    def __len__(self) -> int:
        return self._store.row_count

    def __iter__(self) -> Iterator[ColumnRow]:
        store = self._store
        return (ColumnRow(store, index) for index in range(store.row_count))

    def __getitem__(self, index: int) -> ColumnRow:
        count = self._store.row_count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("row index out of range")
        return ColumnRow(self._store, index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or len(self) != len(other):
            return False
        return all(
            self.column_values(name) == other.column_values(name)
            for name in self._schema.column_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(columns={self._schema.column_names}, rows={len(self)})"

    # -------------------------------------------------------- copy-on-write
    def _unshare(self) -> None:
        if self._shared:
            self._store = self._store.copy()
            self._shared = False

    # ------------------------------------------------------------ row editing
    def insert(self, row: Mapping[str, object]) -> None:
        """Validate *row* against the schema and append it."""
        as_dict = dict(row)
        self._schema.validate_row(as_dict)
        self._unshare()
        self._store.append_row(as_dict)

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Bulk insert: one CoW check, then straight appends per column."""
        self._unshare()
        validate = self._schema.validate_row
        store = self._store
        for row in rows:
            as_dict = dict(row)
            validate(as_dict)
            store.append_row(as_dict)

    def mutable_row(self, index: int) -> ColumnRow:
        """The row at *index*, guaranteed private to this table.

        On a :meth:`lazy_copy` this copies the shared store first; always
        write through the returned view.
        """
        self._unshare()
        return self[index]

    def delete_indices(self, indices: Iterable[int]) -> int:
        """Delete rows at the given positions; return the number deleted."""
        to_drop = set(indices)
        count = self._store.row_count
        if any(index < 0 or index >= count for index in to_drop):
            raise IndexError("row index out of range")
        if not to_drop:
            return 0
        kept = [index for index in range(count) if index not in to_drop]
        # One index mask applied to every column; the new store also makes
        # the table private (deletes never write through shared buffers).
        self._store = self._store.take(kept)
        self._shared = False
        return count - len(kept)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete every row satisfying *predicate*; return the number deleted."""
        store = self._store
        return self.delete_indices(
            [index for index in range(store.row_count) if predicate(ColumnRow(store, index))]
        )

    def update_where(self, predicate: Callable[[Row], bool], updater: Callable[[Row], None]) -> int:
        """Apply *updater* in place to every row satisfying *predicate*."""
        touched = 0
        for index in range(len(self)):
            if predicate(self[index]):
                updater(self.mutable_row(index))
                touched += 1
        return touched

    def set_cells(self, name: str, indices: Sequence[int], values: Sequence[object]) -> None:
        """Write ``values[j]`` into column *name* at row ``indices[j]``.

        The bulk-write counterpart of :meth:`column_sequences`: a single
        copy-on-write check, then in-place writes to the column buffer.
        """
        self._schema.column(name)
        self._unshare()
        column = self._store.columns[name]
        for index, value in zip(indices, values):
            column[index] = value

    # --------------------------------------------------------------- querying
    def column_values(self, name: str) -> list[object]:
        """Project a single column (raises ``KeyError`` for unknown columns)."""
        self._schema.column(name)
        return self._store.columns[name].tolist()

    def distinct_values(self, name: str) -> set[object]:
        self._schema.column(name)
        return set(self._store.columns[name].data)

    def column_sequences(self, names: Sequence[str]) -> dict[str, Sequence]:
        """Read-only references to the raw column buffers, by name.

        For per-column sweeps that skip row views; callers must not write
        through the returned buffers (use :meth:`set_cells`).
        """
        columns = self._store.columns
        return {name: columns[name].data for name in names}

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        """Return a new table containing the rows satisfying *predicate*."""
        store = self._store
        indices = [
            index for index in range(store.row_count) if predicate(ColumnRow(store, index))
        ]
        selected = Table(self._schema)
        selected._store = store.take(indices)
        return selected

    def group_by_count(self, names: Sequence[str]) -> dict[tuple[object, ...], int]:
        """Count rows per combination of values of the given columns.

        This is the primitive behind every k-anonymity check: the bins of the
        paper are exactly the groups of this aggregation over the
        quasi-identifying columns.
        """
        for name in names:
            self._schema.column(name)
        columns = self._store.columns
        if len(names) == 1:
            return dict(Counter((value,) for value in columns[names[0]].data))
        return dict(Counter(zip(*(columns[name].data for name in names))))

    def value_counts(self, name: str) -> dict[object, int]:
        """Count rows per value of a single column."""
        self._schema.column(name)
        return dict(Counter(self._store.columns[name].data))

    # ------------------------------------------------------------------ copies
    def copy(self) -> "Table":
        """Deep copy of the column buffers (schema objects are immutable and shared)."""
        clone = Table(self._schema)
        clone._store = self._store.copy()
        return clone

    def lazy_copy(self) -> "Table":
        """Copy-on-write copy: the store is shared until either side mutates.

        O(1) next to :meth:`copy`'s O(rows), for the attack and embedding
        pipelines that work on a copy of the outsourced table.
        """
        twin = Table(self._schema)
        twin._store = self._store
        twin._shared = True
        self._shared = True
        return twin

    def with_schema(self, schema: TableSchema) -> "Table":
        """Return a copy re-validated against a (compatible) new schema."""
        return Table(schema, self)

    @classmethod
    def concat(cls, schema: TableSchema, tables: Iterable["Table"]) -> "Table":
        """The rows of *tables*, in order, as one new table over *schema*.

        For merges of tables whose rows are already validated (e.g. the
        shard results of a parallel embed): cells are copied column by column
        into new buffers, so the inputs are never written through.
        """
        stores = [table._store for table in tables]
        return cls.from_columns(
            schema,
            {
                name: [value for store in stores for value in store.columns[name].data]
                for name in schema.column_names
            },
        )

    @classmethod
    def from_columns(cls, schema: TableSchema, columns: Mapping[str, Sequence[object]]) -> "Table":
        """Build a table directly from per-column value sequences.

        Each sequence may be a list of cells or a ready :class:`TypedColumn`
        (which is adopted as-is, so builders that already produced typed
        buffers pay no conversion).  All columns must share one length.
        """
        names = schema.column_names
        typed: dict[str, TypedColumn] = {}
        length: int | None = None
        for name in names:
            values = columns[name]
            column = values if isinstance(values, TypedColumn) else TypedColumn.from_values(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ValueError("columns must all have the same length")
            typed[name] = column
        table = cls(schema)
        table._store = ColumnStore(tuple(names), typed, length or 0)
        return table

    def slice_view(self, start: int, stop: int) -> "Table":
        """A table over rows ``[start, stop)``: the shard-parallel executor's unit.

        The range's cells are copied into the view's own buffers (one slice
        per column), so a mutation through the view never reaches this table.
        """
        view = Table(self._schema)
        view._store = self._store.slice(start, stop)
        return view

    # --------------------------------------------------------------------- IO
    def to_csv(self, path: str) -> None:
        """Write the table to *path* as CSV with a header row.

        Same dialect as :func:`repro.service.streaming.render_csv_rows`
        (``\\r\\n`` terminators, ``str()`` cells), so :class:`Interval` cells
        emit the literal :meth:`from_csv` parses back.
        """
        names = self._schema.column_names
        columns = self.column_sequences(names)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            writer.writerows(zip(*(columns[name] for name in names)))

    @classmethod
    def from_csv(cls, path: str, schema: TableSchema) -> "Table":
        """Read a CSV written by :meth:`to_csv`, coercing cells by column type.

        A record that does not parse raises
        :class:`~repro.relational.io.CsvRecordError` naming *path* and the
        record's physical line.
        """
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            fieldnames = next(reader, None)
            if fieldnames is None:
                return cls(schema)
            try:
                return CsvParsePlan(fieldnames, schema).parse(reader)
            except CsvRecordError as error:
                handle.seek(0)
                header = handle.readline()
                line = chunk_record_line(header, handle, error.record)
                raise error.at_line(line, path) from None

    @classmethod
    def from_csv_chunk(cls, schema: TableSchema, header: str, lines: Sequence[str]) -> "Table":
        """Parse one raw CSV chunk (header line + data lines) into columns.

        A record that does not parse raises
        :class:`~repro.relational.io.CsvRecordError` at its physical line
        within the chunk (the header is line 1).
        """
        reader = csv.reader(itertools.chain([header], lines))
        fieldnames = next(reader, None)
        if fieldnames is None:
            return cls(schema)
        try:
            return CsvParsePlan(fieldnames, schema).parse(reader)
        except CsvRecordError as error:
            raise error.at_line(chunk_record_line(header, lines, error.record)) from None


def chunk_record_line(header: str, lines: Iterable[str], record: int) -> int:
    """The 1-based physical line where non-blank *record* starts in a raw chunk.

    Lines count from the chunk's header (line 1), so a caller that knows how
    many data lines preceded the chunk adds that many to get the file line.
    Quoted cells may span lines, so the chunk is re-read with the same
    ``csv`` reader the parse used — an error-path cost only.
    """
    reader = csv.reader(itertools.chain([header], lines))
    next(reader, None)
    start = reader.line_num + 1
    index = 0
    for fields in reader:
        if fields:
            if index == record:
                return start
            index += 1
        start = reader.line_num + 1
    raise IndexError(f"the chunk has no record {record}")
