"""The column-at-a-time CSV decode, held to ``csv.DictReader`` + ``parse_row``.

:class:`~repro.relational.table.CsvParsePlan` splits a chunk's records
into per-column texts and coerces each distinct numeric text once.  These
tests pin what that must not change: every cell's value and exact type, the
column kinds a row-by-row build gives, the unshared ``nan`` cells a per-cell
parse produces, and the failing record, column and physical line.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.io import CsvRecordError, parse_cell, parse_row
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table
from repro.service.streaming import iter_raw_chunks

SCHEMA = TableSchema(
    (
        Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
        Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
        Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
        Column("score", ColumnKind.OTHER, ColumnType.NUMERIC),
    )
)
HEADER = "id,ward,age,score\n"

GOOD_NUMBERS = [
    "37", "0", "-5", " 7 ", "1e5", "-2.0", "2.5", "nan", "inf", "-inf",
    "[25,30)", "[25.0, 30.0)", "[2.5e1,3e1)", "123456789012345678901234567890",
]
BAD_NUMBERS = ["abc", "", "None", "[30,25)", "[1,2,3)", "[nan,1)"]
LABELS = ["Trauma", "Cardio logy", "", "two\nlines", 'say "hi"', "a,b"]


def _typed(values) -> list[tuple[str, str]]:
    """Cells as ``(type, repr)``, so ``1`` and ``1.0`` differ and ``nan`` matches ``nan``."""
    return [(type(value).__name__, repr(value)) for value in values]


def _reference(header: str, lines: list[str], starts: list[int]):
    """``csv.DictReader`` + ``parse_row``: ``(rows, None)`` or ``(rows, failure)``.

    *failure* is ``(record, reason, line)``: the first failing record, the
    reason of its first failing column in schema order, and the physical
    line the record starts on, from *starts*.
    """
    rows = []
    for record, raw in enumerate(csv.DictReader(itertools.chain([header], lines))):
        try:
            rows.append(parse_row(raw, SCHEMA))
        except ValueError as error:
            reason = str(error)
            for column in SCHEMA:  # parse_row names a missing column, not a bad cell's
                if column.name not in raw:
                    break
                try:
                    parse_cell(str(raw[column.name]), column.ctype)
                except ValueError:
                    reason = f"column {column.name!r}: {error}"
                    break
            return rows, (record, reason, starts[record])
    return rows, None


def _render(names: list[str], records: list[list[str]]) -> tuple[str, list[str], list[int]]:
    """The chunk's header and lines, and the physical line each non-blank record starts on.

    Lines count from the header (line 1); a record takes one line plus one
    per newline inside its (quoted) cells, and a blank record one line.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(records)
    header, *lines = buffer.getvalue().splitlines(keepends=True)
    starts, line = [], 2
    for record in records:
        if record:
            starts.append(line)
        line += 1 + sum(cell.count("\n") for cell in record)
    return header, lines, starts


@st.composite
def chunks(draw):
    """A header (maybe missing a schema column or repeating one) and records."""
    names = draw(st.permutations(["id", "ward", "age", "score"]))
    if draw(st.integers(0, 5)) == 0:
        names = names[1:]  # a schema column the header lacks
    names = names + draw(st.lists(st.sampled_from(["age", "ward", "junk"]), max_size=2))
    numeric = st.sampled_from(GOOD_NUMBERS * 4 + BAD_NUMBERS)
    cell = {"age": numeric, "score": numeric}
    records = []
    for _ in range(draw(st.integers(0, 12))):
        width = len(names)
        shape = draw(st.integers(0, 7))
        if shape == 0:
            width = 0  # blank line
        elif shape == 1:
            width = draw(st.integers(1, len(names)))  # short: padded with "None"
        elif shape == 2:
            width += draw(st.integers(1, 2))  # long: extra cells ignored
        records.append(
            [
                draw(cell.get(names[index] if index < len(names) else "", st.sampled_from(LABELS)))
                for index in range(width)
            ]
        )
    return _render(names, records)


@settings(max_examples=300, deadline=None)
@given(chunk=chunks())
def test_chunk_decode_matches_dictreader_and_parse_row(chunk):
    rows, failure = _reference(*chunk)
    header, lines, _ = chunk
    if failure is not None:
        _, reason, line = failure
        with pytest.raises(CsvRecordError) as error:
            Table.from_csv_chunk(SCHEMA, header, lines)
        assert (error.value.reason, error.value.line) == (reason, line)
        return
    table = Table.from_csv_chunk(SCHEMA, header, lines)
    built = Table(SCHEMA, rows)
    assert len(table) == len(rows)
    for name in SCHEMA.column_names:
        assert _typed(table.column_sequences([name])[name]) == _typed(row[name] for row in rows)
        assert table._store.columns[name].kind == built._store.columns[name].kind


@settings(max_examples=150, deadline=None)
@given(chunk=chunks(), size=st.integers(1, 5))
def test_raw_chunks_parse_like_the_whole_file(tmp_path_factory, chunk, size):
    """Raw chunks, each parsed on its own, give the whole file's rows and failure.

    A failing record is located the way the runners locate it: its line in
    the chunk plus the data lines of the chunks before.
    """
    header, lines, _ = chunk
    path = tmp_path_factory.mktemp("chunks") / "chunk.csv"
    path.write_text(header + "".join(lines), encoding="utf-8")
    rows, failure = _reference(*chunk)
    raw = list(iter_raw_chunks(str(path), chunk_size=size))
    assert "".join(line for _, chunk_lines in raw for line in chunk_lines) == "".join(lines)
    assert all(len(chunk_lines) >= size for _, chunk_lines in raw[:-1])
    tables, offset = [], 0
    for chunk_header, chunk_lines in raw:
        try:
            tables.append(Table.from_csv_chunk(SCHEMA, chunk_header, chunk_lines))
        except CsvRecordError as error:
            assert failure is not None
            _, reason, line = failure
            assert (error.reason, error.line + offset) == (reason, line)
            return
        offset += len(chunk_lines)
    assert failure is None
    table = Table.concat(SCHEMA, tables)
    assert len(table) == len(rows)
    for name in SCHEMA.column_names:
        assert _typed(table.column_sequences([name])[name]) == _typed(row[name] for row in rows)


class TestFailureOrder:
    """The earliest failing record wins; within it, the first column in schema order."""

    def _error(self, header: str, *lines: str) -> tuple[str, int]:
        with pytest.raises(CsvRecordError) as error:
            Table.from_csv_chunk(SCHEMA, header, list(lines))
        return error.value.reason, error.value.line

    def test_earlier_record_beats_earlier_column(self):
        reason, line = self._error(HEADER, "a,T,1,2\n", "b,T,3,bad\n", "c,T,bad,4\n")
        assert (reason, line) == ("column 'score': could not convert string to float: 'bad'", 3)

    def test_first_column_in_schema_order_wins_within_a_record(self):
        reason, _ = self._error("id,score,ward,age\n", "a,x,T,y\n")
        assert reason == "column 'age': could not convert string to float: 'y'"

    def test_missing_column_against_a_bad_cell_in_record_0(self):
        # 'age' precedes the missing 'score' in schema order, so its bad cell wins ...
        reason, line = self._error("id,ward,age\n", "\n", "a,T,abc\n")
        assert (reason, line) == ("column 'age': could not convert string to float: 'abc'", 3)
        # ... but a bad cell after record 0 loses to the missing column.
        reason, line = self._error("id,ward,age\n", "a,T,1\n", "b,T,abc\n")
        assert (reason, line) == ("CSV row is missing column 'score'", 2)

    def test_missing_column_with_no_records_is_an_empty_table(self):
        table = Table.from_csv_chunk(SCHEMA, "id,ward\n", ["\n", "\n"])
        assert len(table) == 0 and table.column_values("age") == []


class TestNanCellsStayUnshared:
    """Each ``nan`` cell is its own float, as a per-cell parse makes it.

    Containers match keys by identity before ``==``: a decode that handed
    every ``nan`` cell one shared float would merge them into one key.
    """

    LINES = ["a,T,30,1\n", "b,T,nan,1\n", "c,T,nan,1\n", 'd,T,"[25,30)",1\n', "e,T,nan,1\n"]

    def test_value_counts_keep_one_key_per_nan_cell(self):
        table = Table.from_csv_chunk(SCHEMA, HEADER, self.LINES)
        counts = table.value_counts("age")
        assert sorted(counts.values()) == [1, 1, 1, 1, 1]
        assert sum(1 for value in counts if value != value) == 3

    def test_counter_and_group_by_count_keep_them_apart(self):
        table = Table.from_csv_chunk(SCHEMA, HEADER, self.LINES)
        ages = table.column_sequences(["age"])["age"]
        assert len(Counter(ages)) == 5
        assert len(table.group_by_count(["age", "score"])) == 5
        nans = [value for value in ages if value != value]
        assert len({id(value) for value in nans}) == 3
