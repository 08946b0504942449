"""Durable vault for per-tenant secrets and ownership records.

The vault is what makes the protection framework *litigable from a cold
process*: everything the owner must retain to later detect a mark or prevail
in court — the encryption and watermarking secrets, the embedding parameters
and, per protected dataset, the registered statistic ``v`` and the mark
``F(v)`` — persists under one vault directory, and nothing else is needed to
rebuild a working :class:`~repro.framework.pipeline.ProtectionFramework`.

Storage
-------

A vault is a directory holding ``registry.db`` (see
:mod:`repro.service.backends`): one WAL-mode SQLite database at
``synchronous=FULL``, so every acknowledged mutation is fsynced, and every
mutation is one ``BEGIN IMMEDIATE`` transaction, so writers racing against
one vault (two CLI invocations, or requests on different pre-fork workers)
serialise instead of losing an update.  Reads are live: a long-running
server sees tenants, datasets and tokens another process wrote on its next
lookup.  The database is created with mode ``0600``; secrets are stored in
the clear — wrapping them in a KMS/HSM is a deployment concern outside this
reproduction's scope.

Vaults written before SQLite became the only store (``vault.json``,
``claims.json``, ``audit.log``) are refused with a pointer to
:func:`migrate_vault` (``repro vault migrate``), the one-way import.

Beyond the secrets, the vault also stores one **bearer-token digest** per
tenant for the HTTP frontend: :meth:`KeyVault.issue_token` generates a token
and persists its SHA-256 (never the plaintext), :meth:`KeyVault.verify_token`
checks a presented token in constant time.  Losing a token is recoverable —
re-issuing replaces the digest — whereas the embedding secrets remain
write-once.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
import os
import secrets as _secrets
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.service.audit import AuditChainError, SQLiteAuditLog, verify_records
from repro.service.backends import REGISTRY_FILENAME, SQLiteRegistryBackend, VaultError

__all__ = [
    "TenantRecord",
    "DatasetRecord",
    "KeyVault",
    "VaultError",
    "migrate_vault",
]

#: 128-bit secrets, hex-encoded, when the operator does not supply their own.
GENERATED_SECRET_BYTES = 16


@dataclass(frozen=True)
class TenantRecord:
    """One tenant's secrets and protection parameters.

    The parameters mirror :class:`~repro.framework.pipeline.ProtectionFramework`'s
    constructor so a framework can be rebuilt from the record alone; they are
    fixed at registration time because detection must re-derive exactly the
    embedding-time keys.
    """

    tenant_id: str
    encryption_key: str
    watermark_secret: str
    eta: int = 75
    k: int = 20
    epsilon: int = 5
    mark_length: int = 20
    copies: int = 4
    metrics_depth: int = 1
    watermark_columns: tuple[str, ...] | None = None
    ownership_tau: float = 1e7
    max_mark_bit_errors: int = 2
    code: str = "repetition"

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.encryption_key or not self.watermark_secret:
            raise ValueError("tenant secrets must be non-empty")
        # Fail at registration, not at first detect: the code string is part
        # of the write-once embedding parameters.
        from repro.watermarking.ecc import resolve_code

        resolve_code(self.code)


@dataclass(frozen=True)
class DatasetRecord:
    """What one ``protect`` run registers for a dataset.

    ``registered_statistic`` and ``mark_bits`` are the court-critical pair of
    Section 5.4 (``v`` and ``F(v)``); the rest is operational bookkeeping the
    ``status`` endpoint reports.
    """

    dataset_id: str
    registered_statistic: float
    mark_bits: str
    rows: int = 0
    cells_changed: int = 0
    information_loss: float = 0.0
    source: str = ""

    def __post_init__(self) -> None:
        if not self.dataset_id:
            raise ValueError("dataset_id must be non-empty")
        if not self.mark_bits or set(self.mark_bits) - {"0", "1"}:
            raise ValueError("mark_bits must be a non-empty 0/1 string")


def _tenant_to_json(record: TenantRecord) -> dict:
    payload = asdict(record)
    if record.watermark_columns is not None:
        payload["watermark_columns"] = list(record.watermark_columns)
    return payload


def _tenant_from_json(payload: dict) -> TenantRecord:
    columns = payload.get("watermark_columns")
    return TenantRecord(
        **{
            **payload,
            "watermark_columns": tuple(columns) if columns is not None else None,
        }
    )


class KeyVault:
    """The persistent key/claim material store: a directory holding ``registry.db``.

    A vault is a *directory* (so operators back up and point tools at one
    location).  Use :meth:`KeyVault.init` to create one and the constructor
    to open an existing one.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self._root = os.fspath(root)
        self._backend = SQLiteRegistryBackend(self._root)
        if not self._backend.exists:
            _refuse_legacy(self._root)
            raise VaultError(
                f"no vault at {self._root!r} "
                f"(expected {REGISTRY_FILENAME}; run 'repro vault init' first)"
            )
        # Connect eagerly so an unusable vault fails at open, not first lookup.
        self._backend.connection()

    # ------------------------------------------------------------ construction
    @classmethod
    def init(cls, root: str | os.PathLike) -> "KeyVault":
        """Create an empty vault at *root* (the directory is created too)."""
        root = os.fspath(root)
        _refuse_legacy(root)
        SQLiteRegistryBackend(root).create()
        return cls(root)

    @classmethod
    def open_or_init(cls, root: str | os.PathLike) -> "KeyVault":
        """Open *root*, initialising it first when empty (service convenience)."""
        if os.path.exists(os.path.join(os.fspath(root), REGISTRY_FILENAME)):
            return cls(root)
        return cls.init(root)

    # -------------------------------------------------------------- properties
    @property
    def root(self) -> str:
        return self._root

    @property
    def path(self) -> str:
        """Path of the registry database (``registry.db``)."""
        return self._backend.path

    def claim_store(self):
        """A :class:`~repro.service.store.ClaimStore` over this vault's registry."""
        from repro.service.store import ClaimStore

        return ClaimStore(self._backend)

    def audit_log(self) -> SQLiteAuditLog:
        """This vault's append-only hash-chained audit log."""
        return SQLiteAuditLog(self._backend)

    # ----------------------------------------------------------------- tenants
    def register_tenant(
        self,
        tenant_id: str,
        *,
        encryption_key: str | None = None,
        watermark_secret: str | None = None,
        **params,
    ) -> TenantRecord:
        """Register *tenant_id*, generating any secret not supplied.

        Generated secrets come from :mod:`secrets` (CSPRNG).  Registration is
        write-once: the embedding parameters must never drift between protect
        and detect, so re-registering an existing tenant is an error (also
        when a concurrent writer registered it first — the insert is one
        transaction).
        """
        record = TenantRecord(
            tenant_id=tenant_id,
            encryption_key=encryption_key or _secrets.token_hex(GENERATED_SECRET_BYTES),
            watermark_secret=watermark_secret or _secrets.token_hex(GENERATED_SECRET_BYTES),
            **params,
        )
        if not self._backend.put_tenant(tenant_id, _tenant_to_json(record)):
            raise VaultError(f"tenant {tenant_id!r} is already registered")
        return record

    def tenant(self, tenant_id: str) -> TenantRecord:
        payload = self._backend.get_tenant(tenant_id)
        if payload is None:
            raise VaultError(f"unknown tenant {tenant_id!r} in vault {self._root!r}")
        return _tenant_from_json(payload)

    def tenants(self) -> list[str]:
        return self._backend.list_tenants()

    def __contains__(self, tenant_id: object) -> bool:
        return self._backend.get_tenant(tenant_id) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.tenants())

    # ------------------------------------------------------------ bearer tokens
    def issue_token(self, tenant_id: str) -> str:
        """Generate a bearer token for *tenant_id*, persisting only its digest.

        The plaintext is returned exactly once (hand it to the tenant); the
        vault keeps ``sha256(token)``.  Re-issuing replaces the previous
        digest, which is the recovery path for a lost token.
        """
        token = _secrets.token_urlsafe(GENERATED_SECRET_BYTES * 2)
        if not self._backend.set_token(tenant_id, _token_digest(token)):
            raise VaultError(f"unknown tenant {tenant_id!r} in vault {self._root!r}")
        return token

    def verify_token(self, tenant_id: str, token: str) -> bool:
        """Whether *token* is the current bearer token of *tenant_id*.

        Constant-time digest comparison; ``False`` for unknown tenants and
        tenants that never had a token issued (never an exception — this is
        the authentication hot path).  The read is live, so a token issued
        or rotated by another process takes effect on the next request.
        """
        if not token:
            return False
        stored = self._backend.get_token(tenant_id)
        return bool(stored) and _hmac.compare_digest(stored, _token_digest(token))

    def has_token(self, tenant_id: str) -> bool:
        """Whether a bearer token has ever been issued for *tenant_id*."""
        return bool(self._backend.get_token(tenant_id))

    # ---------------------------------------------------------------- datasets
    def record_dataset(self, tenant_id: str, record: DatasetRecord) -> None:
        """Register (or refresh, after a re-protect) a dataset's ownership record."""
        if not self._backend.put_dataset(tenant_id, record.dataset_id, asdict(record)):
            raise VaultError(f"unknown tenant {tenant_id!r} in vault {self._root!r}")

    def dataset(self, tenant_id: str, dataset_id: str) -> DatasetRecord:
        payload = self._backend.get_dataset(tenant_id, dataset_id)
        if payload is None:
            self.tenant(tenant_id)  # an unknown tenant is the more useful error
            raise VaultError(
                f"tenant {tenant_id!r} has no dataset {dataset_id!r} in vault {self._root!r}"
            )
        return DatasetRecord(**payload)

    def datasets(self, tenant_id: str) -> list[str]:
        return list(self.dataset_records(tenant_id))

    def dataset_records(self, tenant_id: str) -> dict[str, DatasetRecord]:
        """Every dataset record of *tenant_id*, ordered by dataset id (one query)."""
        payloads = self._backend.dataset_records(tenant_id)
        if not payloads:
            self.tenant(tenant_id)  # raises for unknown tenants
        return {dataset_id: DatasetRecord(**payload) for dataset_id, payload in payloads.items()}

    # ----------------------------------------------------------- bulk (ops/CLI)
    def export_state(self) -> dict:
        """The whole registry (tenants + claims) as one JSON-able document."""
        return self._backend.export_state()

    def import_state(self, state: dict) -> None:
        """Replace this vault's contents with *state* (migration/seeding path)."""
        self._backend.import_state(state)


# ------------------------------------------------------------ legacy vaults
#: The documents of a vault written before the registry moved to SQLite.
LEGACY_VAULT_FILENAME = "vault.json"
LEGACY_CLAIMS_FILENAME = "claims.json"
LEGACY_AUDIT_FILENAME = "audit.log"
LEGACY_VERSION = 1


def _refuse_legacy(root: str) -> None:
    """Fail loudly on a legacy vault directory instead of treating it as empty."""
    if os.path.exists(os.path.join(root, LEGACY_VAULT_FILENAME)):
        raise VaultError(
            f"{root!r} is a legacy vault ({LEGACY_VAULT_FILENAME}, no {REGISTRY_FILENAME}); "
            f"import it with 'repro vault migrate {root} NEW' and use NEW from then on"
        )


def _read_legacy_document(path: str, key: str) -> dict:
    """The *key* body of a version-checked legacy JSON document ({} when absent)."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except ValueError as error:
        raise VaultError(f"{path!r} is not a readable vault document: {error}") from error
    version = document.get("version") if isinstance(document, dict) else None
    if version != LEGACY_VERSION or not isinstance(document.get(key), dict):
        raise VaultError(
            f"unsupported {key} document version {version!r} in {path!r} "
            f"(expected {LEGACY_VERSION} with a {key!r} object)"
        )
    return document[key]


def _read_legacy_chain(path: str) -> list[dict]:
    """The records of a legacy JSONL ``audit.log`` (malformed lines raise with their index)."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "rb") as handle:
        for index, raw in enumerate(handle):
            try:
                records.append(json.loads(raw.decode("utf-8")))
            except (ValueError, UnicodeDecodeError) as error:
                raise AuditChainError(index, f"malformed record: {error}") from error
    return records


def migrate_vault(source: str | os.PathLike, destination: str | os.PathLike) -> dict:
    """Import the legacy vault at *source* into a new vault at *destination*.

    Reads ``vault.json`` and ``claims.json`` (version-checked) and the
    ``audit.log`` chain, and verifies the whole chain before anything is
    written: a tampered chain refuses the migration at its exact broken
    index and leaves no destination behind.  The registry is then imported
    in one transaction, the chain replayed record by record through the
    linkage-checked :meth:`SQLiteAuditLog.append_raw`, and a final
    ``migrate`` record seals it.  Returns summary counts.
    """
    source = os.fspath(source)
    if not os.path.exists(os.path.join(source, LEGACY_VAULT_FILENAME)):
        raise VaultError(f"no legacy vault at {source!r} (expected {LEGACY_VAULT_FILENAME})")
    tenants = _read_legacy_document(os.path.join(source, LEGACY_VAULT_FILENAME), "tenants")
    claims = _read_legacy_document(os.path.join(source, LEGACY_CLAIMS_FILENAME), "claims")
    records = _read_legacy_chain(os.path.join(source, LEGACY_AUDIT_FILENAME))
    verify_records(records)
    vault = KeyVault.init(destination)
    vault.import_state({"tenants": tenants, "claims": claims})
    log = vault.audit_log()
    for record in records:
        log.append_raw(record)
    log.append(
        "migrate",
        None,
        payload={
            "source": source,
            "tenants": len(tenants),
            "copied_audit_records": len(records),
        },
    )
    return {
        "tenants": len(tenants),
        "claims": sum(len(entries) for entries in claims.values()),
        "audit_records": len(records) + 1,
    }


def _token_digest(token: str) -> str:
    return hashlib.sha256(token.encode("utf-8")).hexdigest()
