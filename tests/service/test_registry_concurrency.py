"""Multi-process registry mutation: no lost updates, chains stay linear.

The pre-fork HTTP server means *processes*, not threads, race on the
registry.  These tests fork real workers (the same start method the server
uses) and assert two properties: every mutation survives (no lost updates,
no busy-timeout failures), and concurrent audit appends produce one
verifiable linear chain — never a fork.
"""

import multiprocessing
import sqlite3

import pytest

from repro.service.vault import DatasetRecord, KeyVault

WORKERS = 4
PER_WORKER = 6

mp = multiprocessing.get_context("fork")


def _mutate(root, worker, errors):
    """One worker process: register tenants, datasets, claims, audit events."""
    try:
        vault = KeyVault(root)
        for step in range(PER_WORKER):
            tenant = f"w{worker}-t{step}"
            vault.register_tenant(tenant)
            vault.issue_token(tenant)
            vault.record_dataset(
                tenant,
                DatasetRecord(
                    dataset_id=f"d{worker}-{step}",
                    registered_statistic=float(step),
                    mark_bits="1010",
                ),
            )
            vault.audit_log().append(
                "checkpoint", tenant, payload={"worker": worker, "step": step}
            )
    except Exception as error:  # pragma: no cover - surfaces in the assert
        errors.put(f"worker {worker}: {error!r}")


def _claim(root, worker, errors):
    from repro.watermarking.keys import WatermarkKey
    from repro.watermarking.mark import Mark
    from repro.watermarking.ownership import OwnershipClaim

    try:
        store = KeyVault(root).claim_store()
        for step in range(PER_WORKER):
            store.add_claim(
                f"shared-{step}",
                OwnershipClaim(
                    claimant=f"claimant-{worker}",
                    registered_statistic=1.0,
                    mark=Mark.from_string("1010"),
                    watermark_key=WatermarkKey(k1=b"a", k2=b"b", eta=5),
                    encryption_key="e",
                    copies=2,
                    columns=None,
                ),
            )
    except Exception as error:  # pragma: no cover
        errors.put(f"worker {worker}: {error!r}")


def _run_workers(target, root):
    errors = mp.Queue()
    processes = [
        mp.Process(target=target, args=(str(root), worker, errors))
        for worker in range(WORKERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    failures = []
    while not errors.empty():
        failures.append(errors.get())
    assert not failures, failures
    assert all(process.exitcode == 0 for process in processes)


class TestNoLostUpdates:
    def test_registry_mutations_all_survive(self, tmp_path):
        root = tmp_path / "v"
        KeyVault.init(root)
        _run_workers(_mutate, root)

        vault = KeyVault(root)
        expected = {f"w{w}-t{s}" for w in range(WORKERS) for s in range(PER_WORKER)}
        assert set(vault.tenants()) == expected
        for tenant in expected:
            assert vault.has_token(tenant)
            assert len(vault.datasets(tenant)) == 1

    def test_concurrent_audit_appends_form_one_verifiable_chain(self, tmp_path):
        root = tmp_path / "v"
        KeyVault.init(root)
        _run_workers(_mutate, root)

        log = KeyVault(root).audit_log()
        # Each step appends twice: its registration's record and a checkpoint.
        assert log.verify() == 2 * WORKERS * PER_WORKER
        # Every worker's every step is present exactly once — nothing was
        # overwritten by a concurrent appender racing for the same index.
        records = list(log.entries())
        seen = [
            (record["payload"]["worker"], record["payload"]["step"])
            for record in records
            if record["event"] == "checkpoint"
        ]
        assert sorted(seen) == [(w, s) for w in range(WORKERS) for s in range(PER_WORKER)]
        registered = [record["tenant"] for record in records if record["event"] == "register"]
        assert sorted(registered) == sorted(
            f"w{w}-t{s}" for w in range(WORKERS) for s in range(PER_WORKER)
        )

    def test_concurrent_claims_merge_without_loss(self, tmp_path):
        root = tmp_path / "v"
        KeyVault.init(root)
        _run_workers(_claim, root)

        store = KeyVault(root).claim_store()
        for step in range(PER_WORKER):
            assert sorted(store.claimants(f"shared-{step}")) == [
                f"claimant-{w}" for w in range(WORKERS)
            ]


class TestForkedConnectionSafety:
    def test_sqlite_connection_not_shared_across_fork(self, tmp_path):
        """A child must get its own connection, not the parent's (pid check)."""
        root = tmp_path / "v"
        vault = KeyVault.init(root)
        vault.register_tenant("parent")  # parent now holds a live connection

        errors = mp.Queue()

        def child(root, errors):
            try:
                # Reuses the inherited KeyVault object: the backend must
                # notice the pid change and open a fresh connection.
                vault.register_tenant("child")
            except Exception as error:  # pragma: no cover
                errors.put(repr(error))

        process = mp.Process(target=child, args=(str(root), errors))
        process.start()
        process.join(timeout=60)
        assert errors.empty() or pytest.fail(errors.get())
        assert process.exitcode == 0
        assert set(KeyVault(root).tenants()) == {"parent", "child"}

    def test_sqlite_busy_writers_serialise_instead_of_failing(self, tmp_path):
        """BEGIN IMMEDIATE + busy timeout: writers queue, none error out."""
        root = tmp_path / "v"
        KeyVault.init(root)
        _run_workers(_mutate, root)
        conn = sqlite3.connect(root / "registry.db")
        try:
            count = conn.execute("SELECT COUNT(*) FROM tenants").fetchone()[0]
        finally:
            conn.close()
        assert count == WORKERS * PER_WORKER
