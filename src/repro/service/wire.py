"""The JSON wire format of distributed detection: specs, metadata, votes.

The :class:`~repro.service.runners.RemoteRunner` ships raw CSV chunks to
``repro serve`` workers and gets :class:`~repro.watermarking.hierarchical.DetectionVotes`
back; both directions cross the network as JSON.  This module is the single
source of truth for that wire format — the runner builds requests with it,
the worker endpoint (``POST /internal/detect-votes``) parses them with it,
and the round-trip tests assert losslessness against it.

Three shapes:

* **watermarker spec** — :func:`spec_to_json`/:func:`spec_from_json` carry a
  :class:`~repro.service.runners.WatermarkerSpec` (key bytes hex-encoded plus
  construction parameters), from which a worker rebuilds — and caches — an
  engine bit-identical to the coordinator's.
* **suspect metadata** — :func:`metadata_to_json`/:func:`metadata_from_json`
  carry the :class:`~repro.binning.binner.BinnedTable` frontier fields
  (column lists, per-column node *names*, ``k``).  Domain hierarchy trees do
  not cross the wire: node names are resolved against the *worker's* own
  trees, so every fleet member must be configured with the same ontology —
  the same assumption the vault already makes about schema parameters.
* **votes** — :func:`votes_to_json`/:func:`votes_from_json` carry the
  per-position vote lists.  Positions become string keys (JSON objects), vote
  lists stay ordered, counters stay exact — deserialize(serialize(v)) == v,
  so merging remote votes finalises bit-identically to serial detection.

:func:`table_to_csv_lines` renders an in-memory table into the same
``(header, lines)`` chunk shape :func:`~repro.service.streaming.iter_raw_chunks`
produces from a file, which is how the in-memory detect path reaches remote
workers through the one chunk-shipping endpoint.

Telemetry deliberately stays *outside* these shapes: a traced chunk request
carries ``X-Repro-Trace-Id`` as a header and the worker returns its spans
as a sibling ``"spans"`` key next to the serialized votes — so the vote
round trip is lossless with telemetry on, off, or half-configured (see
``docs/observability.md``).
"""

from __future__ import annotations

import csv
import io
from typing import Mapping

from repro.binning.binner import BinnedTable
from repro.relational.table import Table
from repro.watermarking.hierarchical import DetectionVotes

__all__ = [
    "votes_to_json",
    "votes_from_json",
    "spec_to_json",
    "spec_from_json",
    "metadata_to_json",
    "metadata_from_json",
    "binned_metadata_to_json",
    "table_to_csv_lines",
]

#: BinnedTable metadata fields that cross the wire (trees deliberately not).
_METADATA_COLUMNS = ("identifying_columns", "quasi_columns")
_METADATA_NODE_MAPS = ("ultimate_nodes", "maximal_nodes", "minimal_nodes")


# ------------------------------------------------------------------- votes
def votes_to_json(votes: DetectionVotes) -> dict:
    """A JSON-able document for *votes*; lossless (see :func:`votes_from_json`)."""
    return {
        "wmd_length": votes.wmd_length,
        "votes": {str(position): list(cast) for position, cast in votes.votes.items()},
        "tuples_selected": votes.tuples_selected,
        "cells_read": votes.cells_read,
        "votes_cast": votes.votes_cast,
    }


def votes_from_json(payload: Mapping) -> DetectionVotes:
    """The :class:`DetectionVotes` a :func:`votes_to_json` document encodes."""
    try:
        return DetectionVotes(
            wmd_length=int(payload["wmd_length"]),
            votes={
                int(position): [int(vote) for vote in cast]
                for position, cast in payload["votes"].items()
            },
            tuples_selected=int(payload["tuples_selected"]),
            cells_read=int(payload["cells_read"]),
            votes_cast=int(payload["votes_cast"]),
        )
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError(f"malformed votes document: {error!r}") from None


# -------------------------------------------------------------------- spec
def spec_to_json(spec) -> dict:
    """A JSON-able document for a :class:`~repro.service.runners.WatermarkerSpec`."""
    return {
        "k1": spec.k1.hex(),
        "k2": spec.k2.hex(),
        "eta": spec.eta,
        "columns": list(spec.columns) if spec.columns is not None else None,
        "copies": spec.copies,
        "level_weighting": spec.level_weighting,
        "batch": spec.batch,
        "code": spec.code,
    }


def spec_from_json(payload: Mapping):
    """The :class:`WatermarkerSpec` a :func:`spec_to_json` document encodes."""
    from repro.service.runners import WatermarkerSpec  # circular at module load

    try:
        columns = payload["columns"]
        return WatermarkerSpec(
            k1=bytes.fromhex(payload["k1"]),
            k2=bytes.fromhex(payload["k2"]),
            eta=int(payload["eta"]),
            columns=tuple(str(column) for column in columns) if columns is not None else None,
            copies=int(payload["copies"]),
            level_weighting=bool(payload["level_weighting"]),
            batch=bool(payload["batch"]),
            # Pre-ECC peers omit the key; default to the seed scheme.
            code=str(payload.get("code", "repetition")),
        )
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed watermarker spec: {error!r}") from None


# ---------------------------------------------------------------- metadata
def metadata_to_json(metadata: Mapping[str, object]) -> dict:
    """The JSON-able frontier fields of a :class:`BinnedTable` metadata dict.

    Accepts the same mapping :func:`repro.service.api.suspect_view` builds
    (``trees`` included) and keeps everything *except* the trees — the
    receiving worker reattaches its own.
    """
    out: dict = {"k": int(metadata.get("k", 1))}
    for name in _METADATA_COLUMNS:
        if name in metadata:
            out[name] = [str(column) for column in metadata[name]]
    for name in _METADATA_NODE_MAPS:
        if name in metadata:
            out[name] = {
                column: [str(node) for node in nodes]
                for column, nodes in metadata[name].items()
            }
    return out


def metadata_from_json(payload: Mapping, trees: Mapping[str, object]) -> dict:
    """Rebuild :class:`BinnedTable` metadata kwargs, attaching this side's *trees*.

    Raises :class:`ValueError` when the document names a quasi column this
    side has no domain hierarchy tree for — a fleet-configuration mismatch,
    not a data error.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("metadata must be a JSON object")
    quasi = tuple(str(column) for column in payload.get("quasi_columns", ()))
    missing = [column for column in quasi if column not in trees]
    if missing:
        raise ValueError(
            f"no domain hierarchy tree for column(s) {', '.join(missing)} "
            "(fleet members must share the coordinator's ontology)"
        )
    out: dict = {
        "trees": {column: trees[column] for column in quasi},
        "quasi_columns": quasi,
        "k": int(payload.get("k", 1)),
    }
    if "identifying_columns" in payload:
        out["identifying_columns"] = tuple(str(c) for c in payload["identifying_columns"])
    for name in _METADATA_NODE_MAPS:
        if name in payload:
            out[name] = {
                str(column): tuple(str(node) for node in nodes)
                for column, nodes in payload[name].items()
            }
    return out


def binned_metadata_to_json(binned: BinnedTable) -> dict:
    """:func:`metadata_to_json` over a live :class:`BinnedTable`'s own fields."""
    return metadata_to_json(
        {
            "identifying_columns": binned.identifying_columns,
            "quasi_columns": binned.quasi_columns,
            "ultimate_nodes": binned.ultimate_nodes,
            "maximal_nodes": binned.maximal_nodes,
            "minimal_nodes": binned.minimal_nodes,
            "k": binned.k,
        }
    )


# ------------------------------------------------------------------- chunks
def table_to_csv_lines(table: Table) -> tuple[str, list[str]]:
    """Render *table* as the ``(header, lines)`` shape of a raw CSV chunk.

    Cells serialise exactly like :class:`~repro.service.streaming.RowWriter`
    (the csv module's ``str()`` coercion, ``\\r\\n`` terminators), so a worker
    parsing the lines with the shared :mod:`repro.relational.io` machinery
    reads back cell for cell what the in-memory table holds — provided the
    values round-trip their CSV text forms, which every table that was ever
    read from or written to a CSV does by construction.
    """
    names = table.schema.column_names
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")

    def emit(values) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(values)
        return buffer.getvalue()

    header = emit(names)
    columns = table.column_sequences(names)
    return header, [emit(values) for values in zip(*(columns[name] for name in names))]
