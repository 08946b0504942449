"""Equivalence suite: the batched hash engine vs the scalar reference.

The entire point of :mod:`repro.crypto.batch` is that it computes *exactly*
the digests of :func:`repro.crypto.hashing.keyed_hash` — just without the
per-call HMAC key schedule and re-serialisation.  These tests pin that
equivalence for every supported value type, every hasher, both engines and
the digest cache.
"""

from __future__ import annotations

import pytest

from repro.crypto.batch import (
    KeyedHashStream,
    ScalarWatermarkEngine,
    TupleHasher,
    WatermarkHashEngine,
    serialise_value,
)
from repro.crypto.hashing import keyed_hash, keyed_hash_bytes
from repro.watermarking.keys import WatermarkKey

# Every value kind that can appear in a table or a hash-input tuple.
VALUE_ZOO = [
    b"",
    b"raw-bytes",
    "",
    "token",
    "unicode-é中",
    0,
    -1,
    42,
    10**40,
    True,
    False,
    0.0,
    -2.0,
    3.141592653589793,
    1e5,
    float("inf"),
    None,
    (),
    ("a", "bc"),
    ("ab", "c"),  # must hash differently from the previous entry
    ("ident", "column", "position"),
    ("nested", (1, ("deep", None)), [2.5, b"x"]),
    ["list", 1],
]

KEYS = [b"binary-key", b"k" * 64, b"k" * 200, "string-key", 123456789]


class TestKeyedHashStream:
    @pytest.mark.parametrize("key", KEYS, ids=[repr(k)[:20] for k in KEYS])
    def test_hash_many_matches_scalar_keyed_hash(self, key):
        stream = KeyedHashStream(key)
        assert stream.hash_many(VALUE_ZOO) == [keyed_hash(value, key) for value in VALUE_ZOO]

    def test_digest_matches_keyed_hash_bytes(self):
        stream = KeyedHashStream(b"key")
        for value in VALUE_ZOO:
            assert stream.digest(value) == keyed_hash_bytes(value, b"key")

    def test_hash_one_matches_scalar(self):
        stream = KeyedHashStream("secret")
        for value in VALUE_ZOO:
            assert stream.hash_one(value) == keyed_hash(value, "secret")

    def test_select_indices_matches_equation_5(self):
        key = WatermarkKey.from_secret("sel", eta=3)
        idents = [f"ident-{i}" for i in range(500)] + [i for i in range(50)]
        stream = KeyedHashStream(key.k1)
        expected = [i for i, v in enumerate(idents) if keyed_hash(v, key.k1) % key.eta == 0]
        assert stream.select_indices(idents, key.eta) == expected
        # A healthy share is selected at eta=3; the test must not be vacuous.
        assert len(expected) > 50

    def test_select_indices_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            KeyedHashStream(b"k").select_indices(["a"], 0)

    def test_cache_returns_identical_results(self):
        stream = KeyedHashStream(b"k", cache_size=4)
        first = stream.hash_many(VALUE_ZOO)
        second = stream.hash_many(VALUE_ZOO)  # partly cached, partly evicted
        assert first == second

    def test_cache_disabled(self):
        stream = KeyedHashStream(b"k", cache_size=0)
        assert stream.hash_one("v") == keyed_hash("v", b"k")
        assert stream._cache is None

    def test_unsupported_value_raises(self):
        with pytest.raises(TypeError):
            KeyedHashStream(b"k").hash_one({"a": 1})


class TestTupleHasher:
    def test_framing_matches_tuple_serialisation(self):
        stream = KeyedHashStream(b"key")
        for head in VALUE_ZOO:
            hasher = TupleHasher(stream, ("age", "position"))
            payload = hasher.payload(serialise_value(head))
            assert payload == serialise_value((head, "age", "position"))

    def test_hash_matches_scalar_tuple_hash(self):
        key = WatermarkKey.from_secret("tuples", eta=5)
        for tail in [("age", "position"), ("zip", "index", 3), ("only",)]:
            hasher = TupleHasher(KeyedHashStream(key.k2), tail)
            for head in ["ident-1", 42, b"raw", None]:
                expected = keyed_hash((head, *tail), key.k2)
                assert hasher.hash_int(serialise_value(head)) == expected


@pytest.mark.parametrize("eta", [1, 2, 7, 50])
class TestEngineEquivalence:
    def _engines(self, eta):
        key = WatermarkKey.from_secret("engine-equivalence", eta)
        return key, WatermarkHashEngine(key), ScalarWatermarkEngine(key)

    def test_selection(self, eta):
        key, batched, scalar = self._engines(eta)
        idents = [f"ident-{i}" for i in range(300)]
        assert batched.selected_indices(idents) == scalar.selected_indices(idents)
        for ident in idents[:50]:
            assert batched.is_selected(ident) == scalar.is_selected(ident)

    def test_positions_and_base_indices(self, eta):
        key, batched, scalar = self._engines(eta)
        for ident in ["a", 17, ("multi", "ident")]:
            for column in ("age", "zip_code"):
                assert batched.position(ident, column, 80) == scalar.position(ident, column, 80)
                for level in range(4):
                    for size in (2, 3, 5, 9):
                        assert batched.base_index(ident, column, level, size) == scalar.base_index(
                            ident, column, level, size
                        )

    def test_tuple_coordinates_sweep(self, eta):
        key, batched, scalar = self._engines(eta)
        idents = [f"ident-{i}" for i in range(400)]
        columns = ("age", "zip_code", "symptom")
        got = batched.tuple_coordinates(idents, columns, 60, level_sizes={"age": 2})
        ref = scalar.tuple_coordinates(idents, columns, 60)
        assert len(got) == len(ref) == len(idents)
        for coords, expected in zip(got, ref):
            assert (coords is None) == (expected is None)
            if coords is None:
                continue
            for column in columns:
                assert coords.position(column) == expected.position(column)
                for level in range(3):
                    assert coords.base_index(column, level, 4) == expected.base_index(
                        column, level, 4
                    )

    def test_engines_expose_their_key(self, eta):
        key, batched, scalar = self._engines(eta)
        assert batched.key is key
        assert scalar.key is key

    def test_tuple_coordinates_rejects_bad_wmd_length(self, eta):
        key, batched, scalar = self._engines(eta)
        for engine in (batched, scalar):
            with pytest.raises(ValueError):
                engine.tuple_coordinates(["a"], ("c",), 0)

