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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "FeistelCipher": ".cipher",
        "FieldEncryptor": ".cipher",
        "DeterministicPRNG": ".prng",
        "keyed_hash": ".hashing",
        "keyed_hash_bytes": ".hashing",
        "serialise_value": ".hashing",
        "derive_subkey": ".hashing",
        "one_way_bits": ".hashing",
        "mark_from_statistic": ".hashing",
        "KeyedHashStream": ".batch",
        "TupleHasher": ".batch",
        "TupleCoordinates": ".batch",
        "WatermarkHashEngine": ".batch",
        "ScalarWatermarkEngine": ".batch",
    },
)
