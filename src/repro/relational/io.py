"""Schema-aware CSV parsing shared by the table class, the CLI and the service.

The protection pipeline round-trips tables through CSV at two points: the
owner exports the outsourced table (``Table.to_csv``) and later re-ingests a
suspect copy for detection.  Both directions must agree on every textual form
a cell can take:

* numeric cells — plain integers, decimals, scientific notation (``1e5``),
  negatives and the IEEE specials (``nan``, ``inf``),
* generalized numeric cells — half-open :class:`~repro.dht.node.Interval`
  literals such as ``[25,30)`` or ``[25.0, 30.0)`` written by binning.

Historically the interval form was produced by ``to_csv`` but only understood
by a hand-rolled parser inside the CLI (and only in one spelling); this module
is the single place where the mapping lives.  The readers are generators, so
the service's streaming layer can ingest million-row files without
materialising a full :class:`~repro.relational.table.Table`.

This module deliberately imports only the schema and the interval type — no
``Table`` — so ``table.py`` can use it without an import cycle.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, Mapping

from repro.dht.node import Interval
from repro.relational.schema import ColumnType, TableSchema

__all__ = [
    "CsvRecordError",
    "coerce_numeric_cell",
    "parse_cell",
    "parse_row",
    "iter_csv_rows",
    "write_csv_rows",
]


class CsvRecordError(ValueError):
    """A CSV record whose cells do not parse or validate, located in its file.

    Raised where a record fails with whatever location is known there: the
    0-based *record* index within the records being parsed, the 1-based
    physical *line* once a caller has counted lines (a quoted cell may span
    several, so records and lines differ), and the *path* of the file.  The
    message names the most precise of these, e.g.
    ``raw.csv, line 25001: column 'age': could not convert string to float: 'abc'``.
    Picklable, so a pool worker's error reaches the caller intact.
    """

    def __init__(
        self,
        reason: str,
        *,
        record: int | None = None,
        line: int | None = None,
        path: str | None = None,
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.record = record
        self.line = line
        self.path = path

    def __str__(self) -> str:
        if self.line is None:
            return self.reason
        where = f"line {self.line}" if self.path is None else f"{self.path}, line {self.line}"
        return f"{where}: {self.reason}"

    def at_line(self, line: int, path: str | None = None) -> "CsvRecordError":
        """The same failure, located at physical *line* (of *path*, when given)."""
        return CsvRecordError(
            self.reason, record=self.record, line=line, path=path if path is not None else self.path
        )


def coerce_numeric_cell(text: str) -> object:
    """Parse a CSV cell of a numeric column: interval, int, then float.

    Generalized numeric cells are serialised as ``[lower,upper)`` interval
    literals; raw cells as scalars.  ``int`` is tried before ``float`` so that
    identifiers and counts keep their exact type through a round trip.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        return Interval.from_string(stripped)
    try:
        return int(stripped)
    except ValueError:
        return float(stripped)


def parse_cell(text: str, ctype: ColumnType) -> object:
    """Parse one cell according to its column type.

    Categorical cells are kept verbatim (including whitespace — categorical
    values are opaque labels); numeric cells go through
    :func:`coerce_numeric_cell`.
    """
    if ctype is ColumnType.NUMERIC:
        return coerce_numeric_cell(text)
    return text


def parse_row(raw: Mapping[str, str], schema: TableSchema) -> dict[str, object]:
    """Parse a ``csv.DictReader`` row against *schema* (cells coerced by type)."""
    row: dict[str, object] = {}
    for column in schema:
        try:
            text = raw[column.name]
        except KeyError:
            raise ValueError(f"CSV row is missing column {column.name!r}") from None
        row[column.name] = parse_cell(str(text), column.ctype)
    return row


def iter_csv_rows(path: str, schema: TableSchema) -> Iterator[dict[str, object]]:
    """Stream parsed rows from a CSV file, one dict at a time.

    Constant-memory: rows are yielded as they are read, never collected.  The
    file must carry a header naming at least the schema's columns (extra
    columns are ignored, matching ``csv.DictReader`` semantics).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        for raw in csv.DictReader(handle):
            yield parse_row(raw, schema)


def write_csv_rows(path: str, schema: TableSchema, rows: Iterable[Mapping[str, object]]) -> int:
    """Stream *rows* to a CSV file with a header; return the number written.

    Cells are serialised with ``str()``, which for :class:`Interval` values
    produces exactly the literal :func:`coerce_numeric_cell` parses back —
    the round-trip contract the detection path relies on.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=schema.column_names)
        writer.writeheader()
        for row in rows:
            writer.writerow({name: row[name] for name in schema.column_names})
            count += 1
    return count
