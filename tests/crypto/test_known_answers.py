"""Known-answer vectors: literal ciphertexts and hash coordinates for fixed keys.

A dispute must decrypt releases protected years earlier, and a detect must
re-derive the exact tuples, positions and permutation indices the embed
chose.  The equivalence suites compare two implementations with each other;
these vectors pin what both must keep computing.  A failure here means every
existing release changed meaning — never update a literal to make it pass.
"""

from __future__ import annotations

from repro.crypto.batch import WatermarkHashEngine
from repro.crypto.cipher import FieldEncryptor
from repro.watermarking.keys import WatermarkKey

ENCRYPTION_KEY = "kat-encryption-key"
WATERMARK_SECRET = "kat-watermark-secret"

#: (identifier, token) under ENCRYPTION_KEY.  The integer is coerced with
#: ``str`` and so encrypts exactly like its decimal string.
CIPHER_VECTORS = [
    ("123-45-6789", "237160d5328bfc4f4b98dca1be194129"),
    ("987-65-4321", "f6b086535e480aba343f0194eda60005"),
    ("000-00-0000", "1a731a1d68f87df19ccf3f1efbc5fa0c"),
    (123456789, "e643df28079cd09f2bbd195f9939f0f9"),
    ("", "8979fc0383371de7"),
]

#: A modulus wide enough that each coordinate pins ~31 bits of its digest.
WIDE = 2**31 - 1

#: ident -> (position(age), position(symptom), base_index(age, 0),
#: base_index(doctor, 2)), every one taken modulo WIDE.
COORDINATE_VECTORS = {
    "237160d5328bfc4f4b98dca1be194129": (722256889, 1503340772, 849190435, 379713552),
    "f6b086535e480aba343f0194eda60005": (1590987062, 1296535934, 203380451, 1929766820),
    42: (2010093195, 855198194, 1643766530, 2075936642),
    "id-0": (135947816, 1042280897, 2008430298, 1291823904),
}


class TestFieldEncryptorVectors:
    def test_encrypt_many_tokens(self):
        encryptor = FieldEncryptor(ENCRYPTION_KEY)
        values = [value for value, _ in CIPHER_VECTORS]
        assert encryptor.encrypt_many(values) == [token for _, token in CIPHER_VECTORS]

    def test_decrypt_many_round_trip(self):
        encryptor = FieldEncryptor(ENCRYPTION_KEY)
        tokens = [token for _, token in CIPHER_VECTORS]
        assert encryptor.decrypt_many(tokens) == [
            "123-45-6789",
            "987-65-4321",
            "000-00-0000",
            "123456789",
            "",
        ]


class TestWatermarkHashEngineVectors:
    def engine(self) -> WatermarkHashEngine:
        return WatermarkHashEngine(WatermarkKey.from_secret(WATERMARK_SECRET, eta=5))

    def test_subkeys(self):
        key = WatermarkKey.from_secret(WATERMARK_SECRET, eta=5)
        assert key.k1.hex() == "18eeae527e5532ac86507ccf5b3028e93e3f085c2fc28dbd045f4b026046e4e0"
        assert key.k2.hex() == "94da14b6f1411950b1bf8a027bb59774da1edb2259768a3d7aed1d6b5ef553a8"

    def test_selected_indices(self):
        idents = [token for _, token in CIPHER_VECTORS[:2]]
        idents += [42, *(f"id-{i}" for i in range(10))]
        assert self.engine().selected_indices(idents) == [0, 9, 11, 12]

    def test_position_and_base_index(self):
        engine = self.engine()
        for ident, expected in COORDINATE_VECTORS.items():
            got = (
                engine.position(ident, "age", WIDE),
                engine.position(ident, "symptom", WIDE),
                engine.base_index(ident, "age", 0, WIDE),
                engine.base_index(ident, "doctor", 2, WIDE),
            )
            assert got == expected, ident
