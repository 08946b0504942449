"""Cryptographic primitives used by the protection framework.

The paper relies on three primitives:

* a keyed cryptographic hash ``H(data, key)`` (MD5/SHA1 in the paper) used to
  select tuples for mark embedding and to derive permutation indices,
* a one-way function ``F`` that turns a statistic of the clear-text
  identifying column into the watermark (Section 5.4),
* a block cipher ``E`` (DES/AES in the paper) used for the one-to-one
  encryption of identifying columns during binning (Section 4.2.3).

No third-party cryptography package is available offline, so the block cipher
is implemented as a balanced Feistel network whose round function is
HMAC-SHA-256 (:class:`~repro.crypto.cipher.FeistelCipher`).  The framework only
requires the cipher to be a deterministic, invertible, keyed pseudorandom
permutation, which the Feistel construction provides.
"""

from repro.crypto.batch import (
    KeyedHashStream,
    ScalarWatermarkEngine,
    TupleCoordinates,
    TupleHasher,
    WatermarkHashEngine,
    make_engine,
)
from repro.crypto.cipher import FeistelCipher, FieldEncryptor
from repro.crypto.hashing import (
    derive_subkey,
    keyed_hash,
    keyed_hash_bytes,
    mark_from_statistic,
    one_way_bits,
    serialise_value,
)
from repro.crypto.prng import DeterministicPRNG

__all__ = [
    "FeistelCipher",
    "FieldEncryptor",
    "DeterministicPRNG",
    "keyed_hash",
    "keyed_hash_bytes",
    "serialise_value",
    "derive_subkey",
    "one_way_bits",
    "mark_from_statistic",
    "KeyedHashStream",
    "TupleHasher",
    "TupleCoordinates",
    "WatermarkHashEngine",
    "ScalarWatermarkEngine",
    "make_engine",
]
