"""Persistent ownership claims backing the dispute flow of Section 5.4.

A dispute is resolved from :class:`~repro.watermarking.ownership.OwnershipClaim`
objects — the registered statistic, the mark, the watermark key and the
encryption key each claimant brings to court.  The in-memory objects die with
the process, so the :class:`ClaimStore` serialises them next to the vault and
re-hydrates full ``OwnershipClaim`` instances on demand: a cold process can
call ``resolve_dispute`` with nothing but the store's location.

Claims are keyed by dataset, so rival claims over the *same* disputed table
(the paper's Attack 1/Attack 2 scenarios) naturally accumulate under one key
and are assessed together.  They live as one row per (dataset, claimant) in
the vault's ``registry.db`` (:mod:`repro.service.backends`); each mutation is
one transaction, so two concurrent protects (or a protect racing a rival
registering a bogus claim over HTTP) never lose each other's entries, and
claim *order* (arrival order, replaced claims moving to the end) is stable
because disputes see it.
"""

from __future__ import annotations

from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark
from repro.watermarking.ownership import OwnershipClaim

__all__ = ["ClaimStore", "claim_to_json", "claim_from_json"]


def _key_to_json(value: bytes | str) -> dict:
    """Serialise a key that may be raw bytes or an operator-supplied string."""
    if isinstance(value, bytes):
        return {"kind": "hex", "value": value.hex()}
    return {"kind": "str", "value": value}


def _key_from_json(payload: dict) -> bytes | str:
    if payload["kind"] == "hex":
        return bytes.fromhex(payload["value"])
    return payload["value"]


def claim_to_json(claim: OwnershipClaim) -> dict:
    """The JSON document for one claim (inverse of :func:`claim_from_json`)."""
    return {
        "claimant": claim.claimant,
        "registered_statistic": claim.registered_statistic,
        "mark": str(claim.mark),
        "watermark_key": {
            "k1": claim.watermark_key.k1.hex(),
            "k2": claim.watermark_key.k2.hex(),
            "eta": claim.watermark_key.eta,
        },
        "encryption_key": _key_to_json(claim.encryption_key),
        "copies": claim.copies,
        "columns": list(claim.columns) if claim.columns is not None else None,
        "code": claim.code,
    }


def claim_from_json(payload: dict) -> OwnershipClaim:
    """Re-hydrate a full :class:`OwnershipClaim` from its JSON document."""
    key = payload["watermark_key"]
    columns = payload["columns"]
    return OwnershipClaim(
        claimant=payload["claimant"],
        registered_statistic=payload["registered_statistic"],
        mark=Mark.from_string(payload["mark"]),
        watermark_key=WatermarkKey(
            k1=bytes.fromhex(key["k1"]), k2=bytes.fromhex(key["k2"]), eta=key["eta"]
        ),
        encryption_key=_key_from_json(payload["encryption_key"]),
        copies=payload["copies"],
        columns=tuple(columns) if columns is not None else None,
        # Claims written before the coding layer carry no code: the seed
        # scheme was the only one, so default to it.
        code=payload.get("code"),
    )


class ClaimStore:
    """Registry-backed store of ownership claims, keyed by dataset.

    One claimant holds at most one claim per dataset: re-adding (a
    re-protect, or an attacker refreshing a bogus claim) replaces the
    previous entry so disputes never double-count a claimant.  Obtain one
    from :meth:`KeyVault.claim_store`; every read is a live query.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    # --------------------------------------------------------------------- API
    def add_claim(self, dataset_id: str, claim: OwnershipClaim) -> None:
        """Persist *claim* for *dataset_id* (replacing the claimant's previous one)."""
        if not dataset_id:
            raise ValueError("dataset_id must be non-empty")
        self._backend.append_claim(dataset_id, claim.claimant, claim_to_json(claim))

    def claims(self, dataset_id: str) -> list[OwnershipClaim]:
        """Every stored claim over *dataset_id*, re-hydrated, in claim order."""
        return [claim_from_json(entry) for entry in self._backend.list_claims(dataset_id)]

    def claimants(self, dataset_id: str) -> list[str]:
        return [entry["claimant"] for entry in self._backend.list_claims(dataset_id)]

    def tenant_claimants(self, tenant_id: str) -> dict[str, list[str]]:
        """Claimants per dataset of *tenant_id*, in claim order (one query)."""
        return self._backend.tenant_claimants(tenant_id)

    def datasets(self) -> list[str]:
        return self._backend.claim_datasets()

    def remove_claim(self, dataset_id: str, claimant: str) -> bool:
        """Drop *claimant*'s claim over *dataset_id*; return whether one existed."""
        return self._backend.remove_claim(dataset_id, claimant)
