"""A keyed, invertible pseudorandom permutation for identifying columns.

Section 4.2.3 of the paper replaces every value of an identifying column
(e.g. the SSN) by its encryption under a block cipher such as DES or AES.
The encrypted values keep the column unique and traceable by the data holder,
and they feed the tuple-selection hash of the watermarking algorithm.

Offline we have no third-party cryptography package, so the cipher is a
balanced Feistel network over 64-bit blocks whose round function is
HMAC-SHA-256.  A Feistel network with a pseudorandom round function is a
pseudorandom permutation (Luby–Rackoff), which is exactly the property the
framework needs: deterministic, invertible, and unpredictable without the key.

:class:`FieldEncryptor` wraps the block cipher with a simple string codec so
that arbitrary identifier strings (not just 8-byte blocks) can be encrypted to
printable hexadecimal tokens and decrypted back.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Iterable

__all__ = ["FeistelCipher", "FieldEncryptor"]

_BLOCK_BITS = 64
_HALF_BITS = _BLOCK_BITS // 2
_HALF_MASK = (1 << _HALF_BITS) - 1

#: The 32-bit big-endian half codec of the batched paths: ``pack`` equals
#: ``half.to_bytes(4, "big")`` and ``unpack_from`` reads a digest's first four
#: bytes as ``int.from_bytes(digest[:4], "big")`` does, without the slice.
_HALF = struct.Struct(">I")


class FeistelCipher:
    """Balanced Feistel network over 64-bit blocks.

    Parameters
    ----------
    key:
        Secret key (``bytes`` or ``str``).
    rounds:
        Number of Feistel rounds.  Ten rounds is far beyond the four needed
        for the Luby–Rackoff security argument.
    """

    def __init__(self, key: bytes | str, rounds: int = 10) -> None:
        if rounds < 4:
            raise ValueError("a Feistel network needs at least 4 rounds to be a strong PRP")
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise ValueError("key must be non-empty")
        self._rounds = rounds
        self._round_keys = [
            hmac.new(key, b"feistel-round-%d" % i, hashlib.sha256).digest() for i in range(rounds)
        ]

    @property
    def rounds(self) -> int:
        """Number of Feistel rounds."""
        return self._rounds

    def _round_function(self, half: int, round_index: int) -> int:
        digest = hmac.new(
            self._round_keys[round_index],
            half.to_bytes(4, "big"),
            hashlib.sha256,
        ).digest()
        return int.from_bytes(digest[:4], "big")

    def encrypt_block(self, block: int) -> int:
        """Encrypt a 64-bit integer block."""
        if not 0 <= block < (1 << _BLOCK_BITS):
            raise ValueError("block must be a 64-bit unsigned integer")
        left = (block >> _HALF_BITS) & _HALF_MASK
        right = block & _HALF_MASK
        for i in range(self._rounds):
            left, right = right, left ^ self._round_function(right, i)
        return (left << _HALF_BITS) | right

    def decrypt_block(self, block: int) -> int:
        """Invert :meth:`encrypt_block`."""
        if not 0 <= block < (1 << _BLOCK_BITS):
            raise ValueError("block must be a 64-bit unsigned integer")
        left = (block >> _HALF_BITS) & _HALF_MASK
        right = block & _HALF_MASK
        for i in reversed(range(self._rounds)):
            left, right = right ^ self._round_function(left, i), left
        return (left << _HALF_BITS) | right


@dataclass(frozen=True)
class _Codec:
    """How identifier strings are packed into 64-bit blocks."""

    encoding: str = "utf-8"

    def to_blocks(self, text: str) -> list[int]:
        raw = text.encode(self.encoding)
        # Length-prefix so that trailing padding zeros are unambiguous.
        framed = len(raw).to_bytes(2, "big") + raw
        padded_len = -(-len(framed) // 8) * 8
        framed = framed.ljust(padded_len, b"\x00")
        return [int.from_bytes(framed[i : i + 8], "big") for i in range(0, len(framed), 8)]

    def from_blocks(self, blocks: list[int]) -> str:
        raw = b"".join(block.to_bytes(8, "big") for block in blocks)
        length = int.from_bytes(raw[:2], "big")
        return raw[2 : 2 + length].decode(self.encoding)


class FieldEncryptor:
    """Deterministic encryption of identifier fields to printable tokens.

    This is the ``E()`` used by the binning algorithm (Figure 8): each value of
    an identifying column is replaced, one-to-one, by its encryption.  The
    encryption is deterministic so that equal identifiers map to equal tokens
    (preserving keys and joins on the holder's side) and invertible so that the
    owner can decrypt the column when resolving an ownership dispute.

    Tokens are hexadecimal strings; CBC-style chaining with a key-derived
    initialisation block hides repeated 8-byte patterns inside long values.
    """

    def __init__(self, key: bytes | str, rounds: int = 10) -> None:
        self._cipher = FeistelCipher(key, rounds=rounds)
        if isinstance(key, str):
            key = key.encode("utf-8")
        iv_digest = hmac.new(key, b"field-encryptor-iv", hashlib.sha256).digest()
        self._iv = int.from_bytes(iv_digest[:8], "big")
        self._codec = _Codec()

    def encrypt(self, value: object) -> str:
        """Encrypt *value* (coerced to ``str``) to a hexadecimal token."""
        text = value if isinstance(value, str) else str(value)
        blocks = self._codec.to_blocks(text)
        previous = self._iv
        out: list[int] = []
        for block in blocks:
            cipher_block = self._cipher.encrypt_block(block ^ previous)
            out.append(cipher_block)
            previous = cipher_block
        return "".join(block.to_bytes(8, "big").hex() for block in out)

    def encrypt_many(self, values: Iterable[object]) -> list[str]:
        """Encrypt a whole column of values; one token per input value.

        Bit-identical to ``[self.encrypt(v) for v in values]`` — same codec,
        CBC chaining and Feistel arithmetic — but the HMAC key schedule of
        every round key is computed **once per call** (RFC 2104 inner/outer
        pads, cloned per block, the same technique as
        :class:`repro.crypto.batch.KeyedHashStream`), the 32-bit halves go
        through one precompiled ``struct`` codec, and repeated values are
        memoised.  This is the batched path the columnar binning rewrite
        uses; the scalar :meth:`encrypt` remains the reference the
        equivalence suite compares against.
        """
        from repro.crypto.batch import _hmac_pads  # deferred: keeps crypto deps acyclic

        rounds = [
            (inner.copy, outer.copy)
            for inner, outer in (_hmac_pads(key) for key in self._cipher._round_keys)
        ]
        pack = _HALF.pack
        unpack = _HALF.unpack_from
        iv = self._iv
        encoding = self._codec.encoding
        memo: dict[str, str] = {}
        tokens: list[str] = []
        append = tokens.append
        for value in values:
            text = value if isinstance(value, str) else str(value)
            token = memo.get(text)
            if token is None:
                raw = text.encode(encoding)
                framed = len(raw).to_bytes(2, "big") + raw
                padded_len = -(-len(framed) // 8) * 8
                framed = framed.ljust(padded_len, b"\x00")
                previous = iv
                parts: list[str] = []
                for offset in range(0, len(framed), 8):
                    block = int.from_bytes(framed[offset : offset + 8], "big") ^ previous
                    left = (block >> _HALF_BITS) & _HALF_MASK
                    right = block & _HALF_MASK
                    for inner_copy, outer_copy in rounds:
                        digest = inner_copy()
                        digest.update(pack(right))
                        outer = outer_copy()
                        outer.update(digest.digest())
                        left, right = right, left ^ unpack(outer.digest())[0]
                    previous = (left << _HALF_BITS) | right
                    parts.append(previous.to_bytes(8, "big").hex())
                token = memo[text] = "".join(parts)
            append(token)
        return tokens

    def decrypt_many(self, tokens: Iterable[str]) -> list[str]:
        """Decrypt a whole column of tokens; one clear text per input token.

        The mirror of :meth:`encrypt_many`: equal to
        ``[self.decrypt(t) for t in tokens]`` — same token validation, same
        error types, raised at the first bad token — but every round's HMAC
        pads are built once per call and cloned per block (round keys in
        reverse order), halves use the same ``struct`` codec as
        :meth:`encrypt_many`, and repeated tokens are memoised.  The scalar
        :meth:`decrypt` remains the reference the equivalence suite compares
        against.
        """
        from repro.crypto.batch import _hmac_pads  # deferred: keeps crypto deps acyclic

        rounds = [
            (inner.copy, outer.copy)
            for inner, outer in (_hmac_pads(key) for key in reversed(self._cipher._round_keys))
        ]
        pack = _HALF.pack
        unpack = _HALF.unpack_from
        iv = self._iv
        encoding = self._codec.encoding
        block_limit = 1 << _BLOCK_BITS
        memo: dict[str, str] = {}
        clear: list[str] = []
        append = clear.append
        for token in tokens:
            text = memo.get(token)
            if text is None:
                if len(token) % 16 != 0 or not token:
                    raise ValueError("token length must be a positive multiple of 16 hex digits")
                try:
                    blocks = [int(token[i : i + 16], 16) for i in range(0, len(token), 16)]
                except ValueError as exc:
                    raise ValueError("token is not valid hexadecimal") from exc
                previous = iv
                plain = bytearray()
                for block in blocks:
                    if not 0 <= block < block_limit:
                        raise ValueError("block must be a 64-bit unsigned integer")
                    left = (block >> _HALF_BITS) & _HALF_MASK
                    right = block & _HALF_MASK
                    for inner_copy, outer_copy in rounds:
                        digest = inner_copy()
                        digest.update(pack(left))
                        outer = outer_copy()
                        outer.update(digest.digest())
                        left, right = right ^ unpack(outer.digest())[0], left
                    plain += (((left << _HALF_BITS) | right) ^ previous).to_bytes(8, "big")
                    previous = block
                length = int.from_bytes(plain[:2], "big")
                text = memo[token] = plain[2 : 2 + length].decode(encoding)
            append(text)
        return clear

    def decrypt(self, token: str) -> str:
        """Invert :meth:`encrypt`."""
        if len(token) % 16 != 0 or not token:
            raise ValueError("token length must be a positive multiple of 16 hex digits")
        try:
            blocks = [int(token[i : i + 16], 16) for i in range(0, len(token), 16)]
        except ValueError as exc:
            raise ValueError("token is not valid hexadecimal") from exc
        previous = self._iv
        plain: list[int] = []
        for block in blocks:
            plain.append(self._cipher.decrypt_block(block) ^ previous)
            previous = block
        return self._codec.from_blocks(plain)
