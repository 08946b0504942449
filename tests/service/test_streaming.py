"""Tests for chunked CSV ingest/emit."""

import pytest

from repro.dht.node import Interval
from repro.relational.schema import medical_schema
from repro.relational.table import Table
from repro.service.streaming import RowWriter, iter_raw_chunks, iter_rows, write_rows


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory, small_table):
    path = tmp_path_factory.mktemp("streaming") / "raw.csv"
    small_table.to_csv(str(path))
    return str(path)


def _tables(path, chunk_size):
    """Each raw chunk of *path* parsed as a runner task parses it."""
    return [
        Table.from_csv_chunk(medical_schema(), header, lines)
        for header, lines in iter_raw_chunks(path, chunk_size)
    ]


class TestChunkedIngest:
    def test_chunks_cover_rows_in_order(self, raw_csv, small_table):
        chunks = _tables(raw_csv, chunk_size=64)
        assert [len(chunk) for chunk in chunks[:-1]] == [64] * (len(chunks) - 1)
        assert sum(len(chunk) for chunk in chunks) == len(small_table)
        streamed = [row for chunk in chunks for row in chunk]
        assert streamed == list(small_table.rows)

    def test_exact_multiple_has_no_empty_tail(self, raw_csv):
        chunks = _tables(raw_csv, chunk_size=100)
        assert [len(chunk) for chunk in chunks] == [100, 100, 100, 100]

    def test_chunk_size_one_and_huge(self, raw_csv, small_table):
        assert len(_tables(raw_csv, chunk_size=1)) == len(small_table)
        whole = _tables(raw_csv, chunk_size=10**6)
        assert len(whole) == 1 and len(whole[0]) == len(small_table)

    def test_iter_rows_matches_table(self, raw_csv, small_table):
        assert list(iter_rows(raw_csv, medical_schema())) == list(small_table.rows)


class TestEmit:
    def test_row_writer_matches_bulk_writer(self, tmp_path, small_table):
        schema = medical_schema()
        bulk = tmp_path / "bulk.csv"
        incremental = tmp_path / "incremental.csv"
        write_rows(str(bulk), schema, small_table)
        with RowWriter(str(incremental), schema) as writer:
            for chunk_start in range(0, len(small_table), 150):
                for row in small_table.rows[chunk_start : chunk_start + 150]:
                    writer.write_row(row)
        assert writer.rows_written == len(small_table)
        assert incremental.read_bytes() == bulk.read_bytes()

    def test_interval_cells_round_trip_through_emit(self, tmp_path):
        schema = medical_schema()
        row = {
            "ssn": "123456789",
            "age": Interval(25, 30),
            "zip_code": "02139",
            "doctor": "Dr. A",
            "symptom": "Influenza",
            "prescription": "Oseltamivir",
        }
        path = tmp_path / "one.csv"
        write_rows(str(path), schema, [row])
        assert list(iter_rows(str(path), schema)) == [row]


class TestRawChunks:
    def test_raw_chunks_reparse_identically(self, raw_csv, small_table):
        import csv
        import itertools

        from repro.relational.io import parse_row

        schema = medical_schema()
        parsed = []
        for header, lines in iter_raw_chunks(raw_csv, chunk_size=77):
            assert len(lines) <= 77
            for raw in csv.DictReader(itertools.chain([header], lines)):
                parsed.append(parse_row(raw, schema))
        assert parsed == list(small_table.rows)

    def test_empty_file_yields_nothing(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert list(iter_raw_chunks(str(empty))) == []
        header_only = tmp_path / "header.csv"
        header_only.write_text("ssn,age\n")
        assert list(iter_raw_chunks(str(header_only))) == []

    def test_invalid_chunk_size(self, raw_csv):
        with pytest.raises(ValueError):
            next(iter_raw_chunks(raw_csv, chunk_size=0))


class TestSpool:
    def test_spools_file_like_and_iterables(self, tmp_path):
        import io

        from repro.service.streaming import spool_stream

        target = tmp_path / "spooled.bin"
        assert spool_stream(io.BytesIO(b"abc" * 1000), str(target)) == 3000
        assert target.read_bytes() == b"abc" * 1000
        assert spool_stream(iter([b"one", b"", b"two"]), str(target)) == 6
        assert target.read_bytes() == b"onetwo"

    def test_max_bytes_enforced(self, tmp_path):
        from repro.service.streaming import spool_stream

        with pytest.raises(ValueError, match="exceeds"):
            spool_stream(iter([b"x" * 10]), str(tmp_path / "capped.bin"), max_bytes=5)


class TestQuotedNewlineChunking:
    def test_boundary_never_splits_a_quoted_record(self, tmp_path):
        import csv
        import itertools

        path = tmp_path / "tricky.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name"])
            for index in range(20):
                # Every row's second cell holds a quoted newline, so every
                # record spans two physical lines — any line-count boundary
                # would fall mid-record without the parity guard.
                writer.writerow([index, f"line1\nline2-{index}"])
        expected = list(csv.DictReader(open(path, newline="", encoding="utf-8")))
        parsed = []
        for header, lines in iter_raw_chunks(str(path), chunk_size=3):
            parsed.extend(csv.DictReader(itertools.chain([header], lines)))
        assert parsed == expected
