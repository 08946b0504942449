"""SQLite persistence for the protection registry.

The registry is everything the owner must retain to litigate: tenants (their
secrets and embedding parameters), dataset registrations (``v`` and ``F(v)``),
bearer-token digests, ownership claims and the audit chain.  All of it lives
as rows in one ``registry.db`` in the vault directory;
:class:`~repro.service.vault.KeyVault`, :class:`~repro.service.store.ClaimStore`
and :class:`~repro.service.audit.SQLiteAuditLog` are facades over one
:class:`SQLiteRegistryBackend`.

Durability
----------

The database runs in WAL mode at ``synchronous=FULL``: every commit fsyncs
the write-ahead log before it returns, so a mutation reported as done
survives a power cut.  A protect is three such commits (dataset record,
claim, audit record).  Mutations are per-row statements, so their cost does
not grow with the registry.

Reads are live
--------------

Every lookup is one query against committed state, whichever process or
thread committed it (WAL readers never block on the writer).  A long-running
server therefore sees a CLI protect or a token rotation on its next request,
with no cache to reload.

Connections and forking
-----------------------

SQLite connections must not cross ``fork()`` and are not shared across
threads here: the backend opens one connection per (process, thread) lazily,
so a pre-fork worker or a handler-pool thread always operates on its own
connection.  Writes run under ``BEGIN IMMEDIATE`` with a busy timeout, so
concurrent writers (N processes protecting against one vault) serialise
instead of failing.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading

__all__ = ["REGISTRY_FILENAME", "VaultError", "SQLiteRegistryBackend"]

REGISTRY_FILENAME = "registry.db"
REGISTRY_VERSION = 1

#: Seconds a SQLite writer waits on a locked database before giving up.
SQLITE_BUSY_TIMEOUT = 30.0


class VaultError(RuntimeError):
    """Raised for registry lookups/initialisation that cannot be satisfied."""


_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)""",
    """CREATE TABLE IF NOT EXISTS tenants (
    tenant_id    TEXT PRIMARY KEY,
    record       TEXT NOT NULL,
    token_sha256 TEXT
)""",
    """CREATE TABLE IF NOT EXISTS datasets (
    tenant_id  TEXT NOT NULL,
    dataset_id TEXT NOT NULL,
    record     TEXT NOT NULL,
    PRIMARY KEY (tenant_id, dataset_id)
)""",
    """CREATE TABLE IF NOT EXISTS claims (
    dataset_id TEXT NOT NULL,
    claimant   TEXT NOT NULL,
    record     TEXT NOT NULL,
    PRIMARY KEY (dataset_id, claimant)
)""",
    """CREATE TABLE IF NOT EXISTS audit (
    idx     INTEGER PRIMARY KEY,
    prev    TEXT NOT NULL,
    ts      REAL NOT NULL,
    event   TEXT NOT NULL,
    tenant  TEXT,
    dataset TEXT,
    payload TEXT NOT NULL,
    digest  TEXT NOT NULL
)""",
)


class _Transaction:
    """``BEGIN IMMEDIATE`` … ``COMMIT``/``ROLLBACK`` on an autocommit connection.

    IMMEDIATE takes the write lock up front, so a read-then-write mutation
    (register-if-absent, append-to-chain) can never interleave with another
    writer's, across threads and processes alike.  The connection's busy
    timeout arbitrates contention.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")


class SQLiteRegistryBackend:
    """Per-row registry persistence in one WAL-mode SQLite database."""

    def __init__(self, root: str | os.PathLike) -> None:
        self._root = os.fspath(root)
        self._path = os.path.join(self._root, REGISTRY_FILENAME)
        self._local = threading.local()
        self._creating = False

    # ---------------------------------------------------------------- lifecycle
    @property
    def path(self) -> str:
        """The database file an operator would back up (or point tools at)."""
        return self._path

    @property
    def exists(self) -> bool:
        return os.path.exists(self._path)

    def create(self) -> None:
        os.makedirs(self._root, exist_ok=True)
        if self.exists:
            raise VaultError(f"vault already initialised at {self._root!r}")
        # Touch the file with 0600 *before* SQLite writes pages into it: the
        # registry holds tenant secrets (the -wal and -shm sidecars inherit
        # the database file's permissions).
        fd = os.open(self._path, os.O_CREAT | os.O_WRONLY, 0o600)
        os.close(fd)
        self._creating = True
        try:
            conn = self.connection()
            with _Transaction(conn):
                for statement in _SCHEMA:
                    conn.execute(statement)
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('version', ?)",
                    (str(REGISTRY_VERSION),),
                )
        finally:
            self._creating = False

    # -------------------------------------------------------------- connections
    def connection(self) -> sqlite3.Connection:
        """This (process, thread)'s connection — never shared, fork-safe."""
        state = self._local
        if getattr(state, "conn", None) is None or state.pid != os.getpid():
            # A connection inherited over fork() must never be reused; a new
            # pid means this is the first touch in a pre-fork worker.
            state.conn = self._connect()
            state.pid = os.getpid()
        return state.conn

    def _connect(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(self._path, timeout=SQLITE_BUSY_TIMEOUT)
            conn.isolation_level = None  # autocommit; _Transaction manages writes
            conn.execute("PRAGMA journal_mode=WAL")
            # FULL, not WAL's customary NORMAL: a registration the vault has
            # acknowledged is court evidence and must survive power loss.
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute("PRAGMA foreign_keys=ON")
            if not self._creating:
                self._validate(conn)
        except sqlite3.DatabaseError as error:
            raise VaultError(
                f"{self._path!r} is not a usable registry database: {error}"
            ) from error
        return conn

    def _validate(self, conn: sqlite3.Connection) -> None:
        try:
            row = conn.execute("SELECT value FROM meta WHERE key = 'version'").fetchone()
        except sqlite3.OperationalError as error:  # missing tables
            raise VaultError(
                f"{self._path!r} has no registry schema (not a vault?): {error}"
            ) from error
        version = int(row[0]) if row is not None else None
        if version != REGISTRY_VERSION:
            raise VaultError(
                f"unsupported registry version {version!r} (expected {REGISTRY_VERSION})"
            )

    # ------------------------------------------------------------------ tenants
    def put_tenant(self, tenant_id: str, record: dict) -> bool:
        conn = self.connection()
        with _Transaction(conn):
            cursor = conn.execute(
                "INSERT OR IGNORE INTO tenants (tenant_id, record) VALUES (?, ?)",
                (tenant_id, _dump(record)),
            )
            return cursor.rowcount == 1

    def get_tenant(self, tenant_id: str) -> dict | None:
        row = self.connection().execute(
            "SELECT record FROM tenants WHERE tenant_id = ?", (tenant_id,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def list_tenants(self) -> list[str]:
        rows = self.connection().execute(
            "SELECT tenant_id FROM tenants ORDER BY tenant_id"
        ).fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------- tokens
    def set_token(self, tenant_id: str, digest: str) -> bool:
        conn = self.connection()
        with _Transaction(conn):
            cursor = conn.execute(
                "UPDATE tenants SET token_sha256 = ? WHERE tenant_id = ?",
                (digest, tenant_id),
            )
            return cursor.rowcount == 1

    def get_token(self, tenant_id: str) -> str | None:
        row = self.connection().execute(
            "SELECT token_sha256 FROM tenants WHERE tenant_id = ?", (tenant_id,)
        ).fetchone()
        return row[0] if row is not None else None

    # ----------------------------------------------------------------- datasets
    def put_dataset(self, tenant_id: str, dataset_id: str, record: dict) -> bool:
        conn = self.connection()
        with _Transaction(conn):
            known = conn.execute(
                "SELECT 1 FROM tenants WHERE tenant_id = ?", (tenant_id,)
            ).fetchone()
            if known is None:
                return False
            conn.execute(
                "INSERT INTO datasets (tenant_id, dataset_id, record) VALUES (?, ?, ?) "
                "ON CONFLICT (tenant_id, dataset_id) DO UPDATE SET record = excluded.record",
                (tenant_id, dataset_id, _dump(record)),
            )
            return True

    def get_dataset(self, tenant_id: str, dataset_id: str) -> dict | None:
        row = self.connection().execute(
            "SELECT record FROM datasets WHERE tenant_id = ? AND dataset_id = ?",
            (tenant_id, dataset_id),
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def dataset_records(self, tenant_id: str) -> dict[str, dict]:
        """Every dataset record of *tenant_id* in one query, keyed and ordered by id."""
        rows = self.connection().execute(
            "SELECT dataset_id, record FROM datasets WHERE tenant_id = ? ORDER BY dataset_id",
            (tenant_id,),
        ).fetchall()
        return {dataset_id: json.loads(record) for dataset_id, record in rows}

    # ------------------------------------------------------------------- claims
    def append_claim(self, dataset_id: str, claimant: str, record: dict) -> None:
        conn = self.connection()
        with _Transaction(conn):
            # Delete-then-insert (not upsert) so a replaced claim moves to the
            # end of the rowid order: claim order is dispute-visible.
            conn.execute(
                "DELETE FROM claims WHERE dataset_id = ? AND claimant = ?",
                (dataset_id, claimant),
            )
            conn.execute(
                "INSERT INTO claims (dataset_id, claimant, record) VALUES (?, ?, ?)",
                (dataset_id, claimant, _dump(record)),
            )

    def remove_claim(self, dataset_id: str, claimant: str) -> bool:
        conn = self.connection()
        with _Transaction(conn):
            cursor = conn.execute(
                "DELETE FROM claims WHERE dataset_id = ? AND claimant = ?",
                (dataset_id, claimant),
            )
            return cursor.rowcount > 0

    def list_claims(self, dataset_id: str) -> list[dict]:
        rows = self.connection().execute(
            "SELECT record FROM claims WHERE dataset_id = ? ORDER BY rowid",
            (dataset_id,),
        ).fetchall()
        return [json.loads(row[0]) for row in rows]

    def tenant_claimants(self, tenant_id: str) -> dict[str, list[str]]:
        """Claimants per dataset of *tenant_id* in one query, in claim order."""
        rows = self.connection().execute(
            "SELECT dataset_id, claimant FROM claims WHERE dataset_id IN "
            "(SELECT dataset_id FROM datasets WHERE tenant_id = ?) ORDER BY rowid",
            (tenant_id,),
        ).fetchall()
        claimants: dict[str, list[str]] = {}
        for dataset_id, claimant in rows:
            claimants.setdefault(dataset_id, []).append(claimant)
        return claimants

    def claim_datasets(self) -> list[str]:
        rows = self.connection().execute(
            "SELECT DISTINCT dataset_id FROM claims ORDER BY dataset_id"
        ).fetchall()
        return [row[0] for row in rows]

    # --------------------------------------------------------- bulk state (ops)
    def export_state(self) -> dict:
        """The whole registry (sans audit chain) as one JSON-able document."""
        conn = self.connection()
        tenants: dict[str, dict] = {}
        for tenant_id, record, token in conn.execute(
            "SELECT tenant_id, record, token_sha256 FROM tenants ORDER BY tenant_id"
        ):
            entry: dict = {"record": json.loads(record), "datasets": {}}
            if token:
                entry["token_sha256"] = token
            tenants[tenant_id] = entry
        for tenant_id, dataset_id, record in conn.execute(
            "SELECT tenant_id, dataset_id, record FROM datasets ORDER BY tenant_id, dataset_id"
        ):
            tenants[tenant_id]["datasets"][dataset_id] = json.loads(record)
        claims: dict[str, list[dict]] = {}
        for dataset_id, record in conn.execute(
            "SELECT dataset_id, record FROM claims ORDER BY rowid"
        ):
            claims.setdefault(dataset_id, []).append(json.loads(record))
        return {"tenants": tenants, "claims": claims}

    def import_state(self, state: dict) -> None:
        """Replace the registry's contents with *state* in one transaction.

        Bulk import is the migration/seeding path: it bypasses the per-row
        mutation protocol (and the audit chain) by design.
        """
        conn = self.connection()
        with _Transaction(conn):
            conn.execute("DELETE FROM claims")
            conn.execute("DELETE FROM datasets")
            conn.execute("DELETE FROM tenants")
            conn.executemany(
                "INSERT INTO tenants (tenant_id, record, token_sha256) VALUES (?, ?, ?)",
                (
                    (tenant_id, _dump(entry["record"]), entry.get("token_sha256"))
                    for tenant_id, entry in state.get("tenants", {}).items()
                ),
            )
            conn.executemany(
                "INSERT INTO datasets (tenant_id, dataset_id, record) VALUES (?, ?, ?)",
                (
                    (tenant_id, dataset_id, _dump(record))
                    for tenant_id, entry in state.get("tenants", {}).items()
                    for dataset_id, record in entry.get("datasets", {}).items()
                ),
            )
            conn.executemany(
                "INSERT INTO claims (dataset_id, claimant, record) VALUES (?, ?, ?)",
                (
                    (dataset_id, record["claimant"], _dump(record))
                    for dataset_id, records in state.get("claims", {}).items()
                    for record in records
                ),
            )


def _dump(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
