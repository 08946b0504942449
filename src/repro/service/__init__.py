"""Persistent multi-tenant protection service.

The library's :class:`~repro.framework.pipeline.ProtectionFramework` is a
single in-process object: its court-critical state (registered statistic,
mark, secrets) evaporates with the process.  This package turns it into an
operable service for the paper's actual threat model — a data *owner* who
protects many outsourced datasets and must later detect and litigate from a
cold process:

* :mod:`repro.service.vault` — durable per-tenant/per-dataset secrets,
  registered statistics and marks;
* :mod:`repro.service.store` — persistent ownership claims backing the
  dispute flow of Section 5.4;
* :mod:`repro.service.backends` — the storage behind both facades: one
  WAL-mode SQLite ``registry.db`` per vault, fsynced on every commit;
* :mod:`repro.service.audit` — the append-only hash-chained audit log of
  register/protect/detect/dispute events (tamper-evident provenance);
* :mod:`repro.service.streaming` — chunked CSV ingest/emit so million-row
  files never materialise as a full table;
* :mod:`repro.service.executor` — chunk-parallel protect/detect/dispute over
  CSV files, bit-identical to the serial batched path;
* :mod:`repro.service.runners` — pluggable chunk runners: the GIL-bound
  :class:`ThreadRunner`, the engine-reconstructing :class:`ProcessRunner`,
  the :class:`DefaultRunner` used when none is named (processes for CSV
  files, inline for one chunk or one worker), and the multi-machine
  :class:`RemoteRunner` coordinating a fleet of ``repro serve`` workers;
* :mod:`repro.service.wire` — the JSON wire format distributed detection
  speaks (specs, frontier metadata, votes — lossless by test);
* :mod:`repro.service.api` — the :class:`ProtectionService` facade the CLI
  drives;
* :mod:`repro.service.http` — the stdlib WSGI frontend (and client) exposing
  the facade over the network with bearer-token tenant auth;
* :mod:`repro.service.reports` — the ``--json`` report shapes shared by the
  CLI and the HTTP bodies.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "AuditChainError": ".audit",
        "SQLiteAuditLog": ".audit",
        "SQLiteRegistryBackend": ".backends",
        "VaultError": ".backends",
        "migrate_vault": ".vault",
        "ProtectionService": ".api",
        "ProtectOutcome": ".api",
        "DetectOutcome": ".api",
        "suspect_view": ".api",
        "ShardExecutor": ".executor",
        "ShardRunner": ".runners",
        "ThreadRunner": ".runners",
        "ProcessRunner": ".runners",
        "DefaultRunner": ".runners",
        "RemoteRunner": ".runners",
        "FleetError": ".runners",
        "resolve_runner": ".runners",
        "ClaimStore": ".store",
        "KeyVault": ".vault",
        "TenantRecord": ".vault",
        "DatasetRecord": ".vault",
    },
)
