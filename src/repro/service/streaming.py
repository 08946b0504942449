"""Chunked CSV ingest and emit: million-row files without million-row tables.

The readers wrap :mod:`repro.relational.io` (the single source of truth for
cell parsing, including the ``[lower,upper)`` interval round trip) and add
chunking: :func:`iter_raw_chunks` yields successive ``(header, lines)``
chunks of raw CSV text, ``chunk_size`` lines each (a quoted record is never
cut), which a runner's workers parse with
:meth:`~repro.relational.table.Table.from_csv_chunk`, so downstream per-row
work — binning's rewrite, embedding, vote collection — touches one bounded
chunk at a time.  The :class:`RowWriter` is the
emit-side counterpart: an incrementally fed CSV writer that the two-pass
streaming protect keeps open across chunks.

Memory profile: one window of chunks plus the constant frontier metadata,
independent of file size.  Protect needs *two* passes over the input (the
binning frontiers and the ownership statistic are global aggregates); detect
needs one.
"""

from __future__ import annotations

import csv
import io
import os
import secrets
import stat
from typing import Iterable, Iterator, Mapping

from repro.relational.io import iter_csv_rows, write_csv_rows
from repro.relational.schema import TableSchema
from repro.relational.table import Row, Table
from repro.telemetry.trace import span as _stage_span

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "iter_rows",
    "iter_raw_chunks",
    "spool_stream",
    "write_rows",
    "render_csv_rows",
    "RowWriter",
]

DEFAULT_CHUNK_SIZE = 10_000

#: Socket/file copy granularity for :func:`spool_stream`.
SPOOL_CHUNK_BYTES = 64 * 1024


def iter_rows(path: str, schema: TableSchema) -> Iterator[Row]:
    """Stream schema-parsed rows from *path*, one dict at a time."""
    return iter_csv_rows(path, schema)


def iter_raw_chunks(
    path: str, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[tuple[str, list[str]]]:
    """Stream *path* as ``(header_line, data_lines)`` chunks of raw CSV text.

    Every runner task starts from one of these chunks, so parsing stays off
    the ingest thread: the main process only reads lines (cheap I/O), and
    each worker parses its own chunk with
    :meth:`~repro.relational.table.Table.from_csv_chunk` — a ``csv.reader``
    over the chunk prefixed with the shared header, so field mapping is
    identical to reading the file, decoded a column at a time.

    Chunk boundaries land only where the quote parity is even: a suspect CSV
    is attacker-supplied, and a quoted cell may legally contain a newline, so
    a record can span physical lines.  Inside a quoted region the cumulative
    count of ``"`` characters is odd (escaped ``""`` pairs cancel), so
    deferring the cut until parity returns to even guarantees a chunk never
    ends mid-record — every worker parses exactly the records a whole-file
    reader would.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    with open(path, newline="", encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            return
        lines: list[str] = []
        open_quote = False
        for line in handle:
            lines.append(line)
            if line.count('"') % 2:
                open_quote = not open_quote
            if len(lines) >= chunk_size and not open_quote:
                yield header, lines
                lines = []
        if lines:
            yield header, lines


def spool_stream(stream, path: str, *, max_bytes: int | None = None) -> int:
    """Copy a binary *stream* (e.g. an HTTP request body) to *path* in chunks.

    Returns the number of bytes written.  Protect needs two passes over its
    input while a socket can be read only once, so the HTTP frontend spools
    uploads through this into a temporary file — constant memory, like every
    other leg of the streaming path.  *max_bytes* guards against unbounded
    uploads (``ValueError`` when exceeded).
    """
    if hasattr(stream, "read"):
        reader = stream.read
        blocks = iter(lambda: reader(SPOOL_CHUNK_BYTES), b"")
    else:  # any iterable of byte blocks (e.g. a decoded chunked request body)
        blocks = iter(stream)
    written = 0
    with open(path, "wb") as handle:
        for block in blocks:
            written += len(block)
            if max_bytes is not None and written > max_bytes:
                raise ValueError(f"upload exceeds the configured limit of {max_bytes} bytes")
            handle.write(block)
    return written


def write_rows(path: str, schema: TableSchema, rows: Iterable[Mapping[str, object]]) -> int:
    """Stream *rows* to a CSV at *path*; returns the number written."""
    return write_csv_rows(path, schema, rows)


def render_csv_rows(schema: TableSchema, table: Table) -> str:
    """*table*'s rows rendered exactly as :class:`RowWriter` emits them (no header).

    The single source of the emit dialect for code that serialises away from
    the output file — protect pool workers render their chunk with this and
    the executor splices the text through :meth:`RowWriter.write_text`, so
    the two can never drift apart byte-wise.  One positional ``writerows``
    over the zipped column buffers: ``csv.DictWriter.writerow`` reduces to
    exactly this write for rows with the schema's fieldnames.
    """
    names = schema.column_names
    columns = table.column_sequences(names)
    buffer = io.StringIO()
    csv.writer(buffer).writerows(zip(*(columns[name] for name in names)))
    return buffer.getvalue()


class RowWriter:
    """Incrementally fed CSV emitter (context manager) that publishes atomically.

    ``write_text`` appends one chunk's rendered rows; the header is written
    on entry.
    Cells serialise via ``str()``, so :class:`~repro.dht.node.Interval` values
    emit the literal the readers parse back.

    Rows go to a temporary file next to *path* (next to its target when
    *path* is a symlink, which stays in place).  A clean exit from the
    ``with`` block fsyncs it, renames it over the destination and fsyncs
    the directory, so the new file is durable before the caller records
    it anywhere; an exception removes it.  Either way the destination
    holds its old contents or the complete new file, never a partial one
    — also after a crash, which at worst leaves a stray ``.*.tmp`` file
    beside it.  A new destination gets the mode a plain ``open(path,
    "w")`` would give it; an existing one keeps its mode, and the
    temporary file never carries a wider one.  The rename gives the
    destination a new inode: the writer owns it and hard links to the
    old file keep the old contents.
    """

    def __init__(self, path: str, schema: TableSchema) -> None:
        self._path = path
        self._target = None
        self._temp_path = None
        self._schema = schema
        self._handle = None
        self._writer = None
        self._rows_written = 0

    @property
    def rows_written(self) -> int:
        return self._rows_written

    def __enter__(self) -> "RowWriter":
        self._target = os.path.realpath(self._path)
        directory, name = os.path.split(self._target)
        try:
            mode = stat.S_IMODE(os.stat(self._target).st_mode)
        except FileNotFoundError:
            mode = None
        self._temp_path = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        fd = os.open(self._temp_path, flags, 0o666 if mode is None else 0o600)
        self._handle = open(fd, "w", newline="", encoding="utf-8")
        if mode is not None:
            os.chmod(fd, mode)
        self._writer = csv.DictWriter(self._handle, fieldnames=self._schema.column_names)
        self._writer.writeheader()
        return self

    def write_row(self, row: Mapping[str, object]) -> None:
        self._writer.writerow({name: row[name] for name in self._schema.column_names})
        self._rows_written += 1

    def write_text(self, text: str, rows: int) -> None:
        """Append *rows* rows of pre-serialised CSV *text* (no header).

        The emit half of runner-parallel protect: workers serialise their own
        chunk with the same ``csv`` dialect :meth:`write_row` uses (``\\r\\n``
        terminators, ``str()`` cell coercion), so appending the text verbatim
        produces the file a serial :meth:`write_row` loop would — the
        caller vouches for *rows* since the text is not re-scanned.
        """
        with _stage_span("protect.splice", rows=rows):
            self._handle.write(text)
        self._rows_written += rows

    def __exit__(self, exc_type, exc, tb) -> None:
        handle, self._handle, self._writer = self._handle, None, None
        try:
            with handle:
                if exc_type is None:
                    handle.flush()
                    os.fsync(handle.fileno())
            if exc_type is None:
                os.replace(self._temp_path, self._target)
                directory = os.open(os.path.dirname(self._target), os.O_RDONLY)
                try:
                    os.fsync(directory)
                finally:
                    os.close(directory)
        finally:
            if os.path.exists(self._temp_path):
                os.unlink(self._temp_path)
