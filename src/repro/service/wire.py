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

Telemetry deliberately stays *outside* these shapes: a traced chunk request
carries ``X-Repro-Trace-Id`` as a header and the worker returns its spans
as a sibling ``"spans"`` key next to the serialized votes — so the vote
round trip is lossless with telemetry on, off, or half-configured (see
``docs/observability.md``).
"""

from __future__ import annotations

from typing import Mapping

from repro.watermarking.hierarchical import DetectionVotes

__all__ = [
    "votes_to_json",
    "votes_from_json",
    "spec_to_json",
    "spec_from_json",
    "metadata_to_json",
    "metadata_from_json",
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
        "code": spec.code,
    }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_columns(value: object) -> bool:
    return value is None or (
        isinstance(value, list) and all(isinstance(column, str) for column in value)
    )


def _checked(payload: Mapping, name: str, accepts, expected: str):
    """``payload[name]`` if *accepts* it; a ``TypeError`` rather than a coercion."""
    value = payload[name]
    if not accepts(value):
        raise TypeError(f"{name!r} must be {expected}, not {value!r}")
    return value


def spec_from_json(payload: Mapping):
    """The :class:`WatermarkerSpec` a :func:`spec_to_json` document encodes.

    Values are type-checked, never coerced: ``"false"`` is not a boolean and
    ``2.9`` is not a copy count.  A ``"batch"`` key from an older coordinator
    is ignored — both of the engines it selected computed the same digests.
    """
    from repro.service.runners import WatermarkerSpec  # circular at module load

    try:
        columns = _checked(payload, "columns", _is_columns, "null or a list of strings")
        return WatermarkerSpec(
            k1=bytes.fromhex(payload["k1"]),
            k2=bytes.fromhex(payload["k2"]),
            eta=_checked(payload, "eta", _is_int, "an integer"),
            columns=tuple(columns) if columns is not None else None,
            copies=_checked(payload, "copies", _is_int, "an integer"),
            level_weighting=_checked(
                payload, "level_weighting", lambda value: isinstance(value, bool), "a boolean"
            ),
            # Pre-ECC peers omit the key; default to the seed scheme.
            code=str(payload.get("code", "repetition")),
        )
    except (KeyError, TypeError, ValueError) as error:
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
