"""Batched keyed-hash engine for the watermarking hot paths.

Every hot loop of the reproduction — tuple selection (Equation 5), the
position of a cell's bit inside the replicated mark and the keyed permutation
index at every hierarchy level (Figure 9) — reduces to HMAC-SHA-256 calls of
the form ``H(t.ident, k)`` or ``H((t.ident, column, label, ...), k)``.  The
scalar :func:`repro.crypto.hashing.keyed_hash` recomputes the HMAC key
schedule (the inner and outer pads) and re-serialises the hashed value on
every call; over a 100k-row table that dominates the embed/detect runtime.

This module removes that per-call overhead in three ways:

* :class:`KeyedHashStream` builds the HMAC pads **once per key** and clones
  the prepared state with ``hmac.HMAC.copy()`` for every digest, with an
  optional per-table digest cache so repeated idents (embed followed by
  detect, or detect after several attacks) cost one dictionary lookup;
* :class:`TupleHasher` precomputes the serialisation of the constant tail of
  ``(ident, column, "position")``-style tuples, so per tuple only the ident is
  serialised — once, and shared across every hash kind and column;
* :meth:`WatermarkHashEngine.tuple_coordinates` performs a **single streamed
  pass** over a table's idents and returns, for every tuple, either ``None``
  (not selected) or a :class:`TupleCoordinates` handle exposing the bit
  position per column and the keyed permutation index per level.

:class:`ScalarWatermarkEngine` implements the same interface with the seed's
per-call arithmetic; it is the reference the equivalence suite and the scaling
benchmark compare against, injected through the watermarkers' ``engine=``.
Both engines are bit-identical by construction — they compute the very same
digests — which the golden tests assert end to end.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.crypto.hashing import _key_bytes, _to_bytes, keyed_hash

if TYPE_CHECKING:  # imported lazily to avoid a crypto <-> watermarking cycle
    from repro.watermarking.keys import WatermarkKey

__all__ = [
    "serialise_value",
    "KeyedHashStream",
    "TupleHasher",
    "TupleCoordinates",
    "WatermarkHashEngine",
    "ScalarWatermarkEngine",
]

#: Canonical serialisation shared with the scalar path (re-exported so batch
#: callers never drift from :func:`repro.crypto.hashing.keyed_hash`).
serialise_value = _to_bytes

#: Default capacity of the per-stream digest cache.  Entries are
#: (payload bytes -> int) pairs; at ~100 bytes each the default bounds the
#: cache to a few hundred MB even for adversarially long idents, and the
#: cache is simply cleared (not evicted entry-wise) when it fills up.
DEFAULT_CACHE_SIZE = 1 << 20


def _length_prefixed(encoded: bytes) -> bytes:
    """The ``<len>:<bytes>`` framing used inside tuple serialisations."""
    return str(len(encoded)).encode("ascii") + b":" + encoded


_SHA256_BLOCK = 64


def _hmac_pads(key: object) -> tuple["hashlib._Hash", "hashlib._Hash"]:
    """SHA-256 states pre-fed with the HMAC inner and outer padded keys.

    Implements the RFC 2104 key schedule once: keys longer than the block
    size are hashed first, then zero-padded and XORed with the ipad/opad
    constants.  Digests obtained by cloning these states are bit-identical
    to ``hmac.new(key, payload, hashlib.sha256)`` — asserted by the
    equivalence suite — while each clone is a single C-level ``copy()`` of a
    raw hash object instead of a pass through the ``hmac`` wrapper class.
    """
    material = _key_bytes(key)
    if len(material) > _SHA256_BLOCK:
        material = hashlib.sha256(material).digest()
    padded = material + b"\x00" * (_SHA256_BLOCK - len(material))
    inner = hashlib.sha256(bytes(byte ^ 0x36 for byte in padded))
    outer = hashlib.sha256(bytes(byte ^ 0x5C for byte in padded))
    return inner, outer


class KeyedHashStream:
    """HMAC-SHA-256 stream with a precomputed key schedule and digest cache.

    The inner/outer pads of HMAC are derived from the key once, in
    ``__init__``; every subsequent digest clones the two prepared SHA-256
    states instead of rebuilding the key schedule.  With ``cache_size > 0``
    integer digests are memoised by payload, which turns the second and later
    sweeps over the same table (detection after embedding, detection after an
    attack that preserves idents) into dictionary lookups.
    """

    __slots__ = ("_inner", "_outer", "_cache", "_cache_size")

    def __init__(self, key: object, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self._inner, self._outer = _hmac_pads(key)
        self._cache: dict[bytes, int] | None = {} if cache_size > 0 else None
        self._cache_size = cache_size

    # ----------------------------------------------------------- raw payloads
    def digest_payload(self, payload: bytes) -> bytes:
        """32-byte digest of an already-serialised *payload*."""
        inner = self._inner.copy()
        inner.update(payload)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def hash_payload(self, payload: bytes) -> int:
        """Integer digest of an already-serialised *payload* (cached)."""
        cache = self._cache
        if cache is not None:
            hit = cache.get(payload)
            if hit is not None:
                return hit
        inner = self._inner.copy()
        inner.update(payload)
        outer = self._outer.copy()
        outer.update(inner.digest())
        value = int.from_bytes(outer.digest(), "big")
        if cache is not None:
            if len(cache) >= self._cache_size:
                cache.clear()
            cache[payload] = value
        return value

    def clear_cache(self) -> None:
        """Drop every memoised digest (long-running processes, key rotation)."""
        if self._cache is not None:
            self._cache.clear()

    # --------------------------------------------------------- python values
    def digest(self, value: object) -> bytes:
        """Equivalent of :func:`repro.crypto.hashing.keyed_hash_bytes`."""
        return self.digest_payload(serialise_value(value))

    def hash_one(self, value: object) -> int:
        """Equivalent of :func:`repro.crypto.hashing.keyed_hash`."""
        return self.hash_payload(serialise_value(value))

    def hash_many(self, values: Iterable[object]) -> list[int]:
        """``[keyed_hash(v, key) for v in values]`` without the per-call setup."""
        serialise = serialise_value
        hash_payload = self.hash_payload
        return [hash_payload(serialise(value)) for value in values]

    def select_indices(self, idents: Iterable[object], eta: int) -> list[int]:
        """Indices where ``H(ident, key) mod eta == 0`` (Equation 5)."""
        if eta < 1:
            raise ValueError("eta must be at least 1")
        serialise = serialise_value
        hash_payload = self.hash_payload
        out: list[int] = []
        append = out.append
        for index, ident in enumerate(idents):
            if type(ident) is str:
                payload = b"S" + ident.encode("utf-8")
            else:
                payload = serialise(ident)
            if hash_payload(payload) % eta == 0:
                append(index)
        return out


class TupleHasher:
    """Hashes ``(head, *tail)`` tuples whose *tail* is fixed at construction.

    The serialisation of the constant tail — e.g. ``(column, "position")`` —
    is framed once; per call only the (typically pre-serialised) head is
    spliced in.  The produced payload is byte-identical to
    ``serialise_value((head, *tail))``, so digests agree with the scalar path.
    """

    __slots__ = ("_stream", "_prefix", "_tail")

    def __init__(self, stream: KeyedHashStream, tail: Sequence[object]) -> None:
        self._stream = stream
        self._prefix = b"T" + str(1 + len(tail)).encode("ascii")
        self._tail = b"".join(_length_prefixed(serialise_value(item)) for item in tail)

    def payload(self, head_payload: bytes) -> bytes:
        """The full tuple serialisation for a pre-serialised head."""
        return self._prefix + _length_prefixed(head_payload) + self._tail

    def hash_int(self, head_payload: bytes) -> int:
        """Integer digest of ``(head, *tail)`` for a pre-serialised head."""
        return self._stream.hash_payload(self.payload(head_payload))


class TupleCoordinates:
    """Per-tuple hash coordinates produced by a single engine sweep.

    ``position(column)`` is the index of the tuple's bit inside the replicated
    mark ``wmd`` and ``base_index(column, level, size)`` the keyed permutation
    index ``H(t.ident, k2) mod size`` at a hierarchy *level*.  Positions are
    precomputed during the sweep; permutation indices are derived lazily from
    the tuple's cached ident serialisation because the number of levels walked
    depends on the tree branch being embedded into.
    """

    __slots__ = ("_engine", "_payload", "_positions")

    def __init__(self, engine: "WatermarkHashEngine", payload: bytes, positions: dict[str, int]) -> None:
        self._engine = engine
        self._payload = payload
        self._positions = positions

    def position(self, column: str) -> int:
        """Position of this tuple's bit within ``wmd`` for *column*."""
        return self._positions[column]

    def base_index(self, column: str, level: int, size: int) -> int:
        """Keyed permutation index ``H(t.ident, k2) mod size`` at *level*."""
        return self._engine._index_hasher(column, level).hash_int(self._payload) % size


class WatermarkHashEngine:
    """The batched keyed-hash engine behind embed and detect.

    Owns one :class:`KeyedHashStream` per sub-key — ``k1`` for tuple selection
    and ``k2`` for positions and permutation indices — plus the per-column
    :class:`TupleHasher` instances that keep tuple framing off the hot path.
    One engine instance per watermarker is the intended granularity: its
    digest caches then make a detect pass following an embed pass (or several
    detect passes over attacked variants of one table) almost free.
    """

    def __init__(self, key: WatermarkKey, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self._key = key
        self._selection = KeyedHashStream(key.k1, cache_size=cache_size)
        self._permutation = KeyedHashStream(key.k2, cache_size=cache_size)
        self._position_hashers: dict[str, TupleHasher] = {}
        self._index_hashers: dict[tuple[str, int], TupleHasher] = {}

    @property
    def key(self) -> WatermarkKey:
        return self._key

    def clear_caches(self) -> None:
        """Drop the selection and permutation digest caches."""
        self._selection.clear_cache()
        self._permutation.clear_cache()

    # ---------------------------------------------------------------- hashers
    def _position_hasher(self, column: str) -> TupleHasher:
        hasher = self._position_hashers.get(column)
        if hasher is None:
            hasher = TupleHasher(self._permutation, (column, "position"))
            self._position_hashers[column] = hasher
        return hasher

    def _index_hasher(self, column: str, level: int) -> TupleHasher:
        hasher = self._index_hashers.get((column, level))
        if hasher is None:
            hasher = TupleHasher(self._permutation, (column, "index", level))
            self._index_hashers[(column, level)] = hasher
        return hasher

    # ------------------------------------------------------------ scalar API
    def is_selected(self, ident: object) -> bool:
        """Equation 5 for a single tuple."""
        return self._selection.hash_one(ident) % self._key.eta == 0

    def selected_indices(self, idents: Iterable[object]) -> list[int]:
        return self._selection.select_indices(idents, self._key.eta)

    def position(self, ident: object, column: str, wmd_length: int) -> int:
        return self._position_hasher(column).hash_int(serialise_value(ident)) % wmd_length

    def base_index(self, ident: object, column: str, level: int, size: int) -> int:
        return self._index_hasher(column, level).hash_int(serialise_value(ident)) % size

    # ------------------------------------------------------------- batch API
    def tuple_coordinates(
        self,
        idents: Iterable[object],
        columns: Sequence[str],
        wmd_length: int,
        level_sizes: Mapping[str, int] | None = None,
    ) -> list["TupleCoordinates | None"]:
        """Selection, positions and permutation handles in one table sweep.

        Returns one entry per ident: ``None`` when the tuple is not selected
        (the overwhelmingly common case — one in ``η``), or a
        :class:`TupleCoordinates` whose positions for every column of
        *columns* are already computed.  Each ident is serialised exactly
        once and its bytes reused for the selection hash, every position hash
        and any later permutation-index hash.

        *level_sizes* optionally maps a column to the number of hierarchy
        levels expected to be walked during embedding; the corresponding
        permutation hashes are then computed eagerly inside the sweep (they
        remain available, lazily, beyond that depth either way).
        """
        if wmd_length < 1:
            raise ValueError("wmd_length must be at least 1")
        eta = self._key.eta
        serialise = serialise_value
        position_hashers = [(column, self._position_hasher(column)) for column in columns]
        eager: list[tuple[str, TupleHasher]] = []
        if level_sizes:
            for column, depth in level_sizes.items():
                eager.extend((column, self._index_hasher(column, level)) for level in range(depth))

        # The selection stream's internals are deliberately inlined here: this
        # loop runs once per table row, and at 100k rows even one avoided
        # method call per row is measurable.  ``str`` idents (the encrypted
        # identifier tokens) additionally skip the generic serialiser.
        cache = self._selection._cache
        cache_size = self._selection._cache_size
        inner_copy = self._selection._inner.copy
        outer_copy = self._selection._outer.copy
        from_bytes = int.from_bytes

        out: list[TupleCoordinates | None] = []
        append = out.append
        for ident in idents:
            if type(ident) is str:
                payload = b"S" + ident.encode("utf-8")
            else:
                payload = serialise(ident)
            digest = cache.get(payload) if cache is not None else None
            if digest is None:
                inner = inner_copy()
                inner.update(payload)
                outer = outer_copy()
                outer.update(inner.digest())
                digest = from_bytes(outer.digest(), "big")
                if cache is not None:
                    if len(cache) >= cache_size:
                        cache.clear()
                    cache[payload] = digest
            if digest % eta != 0:
                append(None)
                continue
            positions = {
                column: hasher.hash_int(payload) % wmd_length for column, hasher in position_hashers
            }
            for _column, hasher in eager:
                hasher.hash_int(payload)  # warms the permutation digest cache
            append(TupleCoordinates(self, payload, positions))
        return out


class _ScalarCoordinates:
    """Per-call coordinates mirroring the seed's scalar arithmetic."""

    __slots__ = ("_engine", "_ident", "_wmd_length")

    def __init__(self, engine: "ScalarWatermarkEngine", ident: object, wmd_length: int) -> None:
        self._engine = engine
        self._ident = ident
        self._wmd_length = wmd_length

    def position(self, column: str) -> int:
        return self._engine.position(self._ident, column, self._wmd_length)

    def base_index(self, column: str, level: int, size: int) -> int:
        return self._engine.base_index(self._ident, column, level, size)


class ScalarWatermarkEngine:
    """Reference engine: one fresh HMAC per call, exactly like the seed.

    Kept as the ground truth for the equivalence suite and as the baseline
    the scaling benchmark measures the batched engine against; both inject it
    through ``HierarchicalWatermarker(engine=...)``.
    """

    def __init__(self, key: WatermarkKey) -> None:
        self._key = key

    @property
    def key(self) -> WatermarkKey:
        return self._key

    def is_selected(self, ident: object) -> bool:
        return keyed_hash(ident, self._key.k1) % self._key.eta == 0

    def selected_indices(self, idents: Iterable[object]) -> list[int]:
        return [index for index, ident in enumerate(idents) if self.is_selected(ident)]

    def position(self, ident: object, column: str, wmd_length: int) -> int:
        return keyed_hash((ident, column, "position"), self._key.k2) % wmd_length

    def base_index(self, ident: object, column: str, level: int, size: int) -> int:
        return keyed_hash((ident, column, "index", level), self._key.k2) % size

    def tuple_coordinates(
        self,
        idents: Iterable[object],
        columns: Sequence[str],
        wmd_length: int,
        level_sizes: Mapping[str, int] | None = None,
    ) -> list["_ScalarCoordinates | None"]:
        if wmd_length < 1:
            raise ValueError("wmd_length must be at least 1")
        return [
            _ScalarCoordinates(self, ident, wmd_length) if self.is_selected(ident) else None
            for ident in idents
        ]
