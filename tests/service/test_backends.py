"""The SQLite registry: schema checks, durability, live reads, ordered claims."""

import json
import os
import sqlite3

import pytest

from repro.service.api import ProtectionService
from repro.service.backends import SQLiteRegistryBackend, VaultError
from repro.service.vault import DatasetRecord, KeyVault


def make_vault(tmp_path, name="v"):
    return KeyVault.init(tmp_path / name)


class TestDatabase:
    def test_unsupported_registry_version_rejected(self, tmp_path):
        vault = make_vault(tmp_path)
        conn = sqlite3.connect(vault.path)
        with conn:
            conn.execute("UPDATE meta SET value = '99' WHERE key = 'version'")
        conn.close()
        with pytest.raises(VaultError, match="version"):
            KeyVault(tmp_path / "v")

    def test_garbage_database_rejected(self, tmp_path):
        # No WAL sidecars here — SQLite would recover the real pages from them.
        root = tmp_path / "v"
        root.mkdir()
        (root / "registry.db").write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(VaultError, match="registry"):
            KeyVault(root)

    def test_database_without_schema_rejected(self, tmp_path):
        root = tmp_path / "v"
        root.mkdir()
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.close()
        with pytest.raises(VaultError, match="no registry schema"):
            KeyVault(root)

    def test_missing_version_row_rejected(self, tmp_path):
        vault = make_vault(tmp_path)
        conn = sqlite3.connect(vault.path)
        with conn:
            conn.execute("DELETE FROM meta WHERE key = 'version'")
        conn.close()
        with pytest.raises(VaultError, match="unsupported registry version None"):
            KeyVault(tmp_path / "v")

    def test_restrictive_mode(self, tmp_path):
        vault = make_vault(tmp_path)
        assert (os.stat(vault.path).st_mode & 0o777) == 0o600

    def test_wal_sidecars_inherit_restrictive_mode(self, tmp_path):
        """The -wal file holds committed secrets until checkpoint: 0600 too."""
        vault = make_vault(tmp_path)
        vault.register_tenant("acme", encryption_key="E", watermark_secret="W")
        for suffix in ("-wal", "-shm"):
            assert (os.stat(vault.path + suffix).st_mode & 0o777) == 0o600, suffix

    def test_connections_are_per_thread(self, tmp_path):
        import threading

        make_vault(tmp_path)
        backend = SQLiteRegistryBackend(tmp_path / "v")
        main = backend.connection()
        assert backend.connection() is main
        seen = []
        thread = threading.Thread(target=lambda: seen.append(backend.connection()))
        thread.start()
        thread.join()
        assert len(seen) == 1 and seen[0] is not main

    def test_fresh_connection_is_fully_synchronous(self, tmp_path):
        """synchronous=FULL (2): every acknowledged commit is fsynced."""
        make_vault(tmp_path)
        conn = SQLiteRegistryBackend(tmp_path / "v").connection()
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_live_cross_handle_visibility(self, tmp_path):
        """Readers see committed writes from other handles immediately."""
        writer = make_vault(tmp_path)
        reader = KeyVault(tmp_path / "v")
        writer.register_tenant("acme")
        assert reader.tenants() == ["acme"]
        writer.record_dataset(
            "acme", DatasetRecord(dataset_id="d", registered_statistic=1.5, mark_bits="1010")
        )
        assert reader.dataset("acme", "d").mark_bits == "1010"

    def test_open_or_init_round_trip(self, tmp_path):
        first = KeyVault.open_or_init(tmp_path / "v")
        first.register_tenant("acme")
        second = KeyVault.open_or_init(tmp_path / "v")
        assert second.tenants() == ["acme"]


class TestRegistryLifecycle:
    def test_full_registry_lifecycle(self, tmp_path):
        vault = make_vault(tmp_path)
        record = vault.register_tenant("acme", encryption_key="E", watermark_secret="W")
        with pytest.raises(VaultError, match="already registered"):
            vault.register_tenant("acme")
        assert vault.tenant("acme") == record
        token = vault.issue_token("acme")
        assert vault.verify_token("acme", token)
        assert not vault.verify_token("acme", token[:-1] + ("x" if token[-1] != "x" else "y"))
        vault.record_dataset(
            "acme", DatasetRecord(dataset_id="d", registered_statistic=1.5, mark_bits="1010")
        )
        assert vault.dataset("acme", "d").registered_statistic == 1.5
        assert vault.datasets("acme") == ["d"]
        assert list(vault.dataset_records("acme")) == ["d"]
        with pytest.raises(VaultError, match="no dataset"):
            vault.dataset("acme", "ghost")
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.tenant("nobody")
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.dataset("nobody", "d")
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.dataset_records("nobody")

    def test_claim_order_and_move_to_end(self, tmp_path):
        """Replaced claims move to the end — claim order is dispute-visible."""
        from repro.watermarking.keys import WatermarkKey
        from repro.watermarking.mark import Mark
        from repro.watermarking.ownership import OwnershipClaim

        def claim_for(name):
            return OwnershipClaim(
                claimant=name,
                registered_statistic=1.0,
                mark=Mark.from_string("1010"),
                watermark_key=WatermarkKey(k1=b"a", k2=b"b", eta=5),
                encryption_key="e",
                copies=2,
                columns=None,
            )

        store = make_vault(tmp_path).claim_store()
        for name in ("alpha", "beta", "gamma"):
            store.add_claim("d", claim_for(name))
        store.add_claim("d", claim_for("alpha"))  # replace -> moves to end
        assert store.claimants("d") == ["beta", "gamma", "alpha"]
        assert store.remove_claim("d", "beta") is True
        assert store.remove_claim("d", "beta") is False
        assert store.claimants("d") == ["gamma", "alpha"]

    def test_export_import_round_trip(self, tmp_path):
        vault = make_vault(tmp_path, "src")
        vault.register_tenant("acme", encryption_key="E", watermark_secret="W")
        vault.issue_token("acme")
        vault.record_dataset(
            "acme", DatasetRecord(dataset_id="d", registered_statistic=1.5, mark_bits="1010")
        )
        state = vault.export_state()
        other = make_vault(tmp_path, "dst")
        other.import_state(state)
        assert other.export_state() == state


class TestTransactions:
    """Each mutation is one transaction: all of it lands, or none of it."""

    def seeded(self, tmp_path):
        vault = make_vault(tmp_path)
        vault.register_tenant("acme", encryption_key="E", watermark_secret="W")
        vault.record_dataset(
            "acme", DatasetRecord(dataset_id="d", registered_statistic=1.5, mark_bits="1010")
        )
        return vault

    def test_failed_import_rolls_back_to_the_previous_state(self, tmp_path):
        vault = self.seeded(tmp_path)
        before = vault.export_state()
        broken = {
            "tenants": {"globex": {"record": {"tenant_id": "globex"}, "datasets": {}}},
            "claims": {"d": [{"mark": "10"}]},  # no claimant: fails mid-import
        }
        with pytest.raises(KeyError, match="claimant"):
            vault.import_state(broken)
        assert KeyVault(tmp_path / "v").export_state() == before

    def test_import_replaces_previous_contents(self, tmp_path):
        vault = self.seeded(tmp_path)
        vault.import_state(
            {"tenants": {"globex": {"record": {"tenant_id": "globex"}, "datasets": {}}}}
        )
        assert vault.tenants() == ["globex"]
        assert vault.export_state() == {
            "tenants": {"globex": {"record": {"tenant_id": "globex"}, "datasets": {}}},
            "claims": {},
        }

    def test_import_leaves_the_audit_chain_untouched(self, tmp_path):
        vault = self.seeded(tmp_path)
        log = vault.audit_log()  # holds acme's register record
        head = list(log.entries())
        vault.import_state({"tenants": {}, "claims": {}})
        assert list(log.entries()) == head
        assert log.verify() == 1

    def test_dataset_for_unknown_tenant_writes_nothing(self, tmp_path):
        vault = self.seeded(tmp_path)
        before = vault.export_state()
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.record_dataset(
                "nobody", DatasetRecord(dataset_id="d", registered_statistic=1.0, mark_bits="1")
            )
        assert vault.export_state() == before

    def test_token_for_unknown_tenant_rejected(self, tmp_path):
        vault = self.seeded(tmp_path)
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.issue_token("nobody")
        assert not vault.has_token("nobody")
        assert "nobody" not in vault


class TestStatus:
    def test_status_matches_per_dataset_reads(self, tmp_path):
        """The bulk status queries report what the per-dataset reads would."""
        from repro.watermarking.keys import WatermarkKey
        from repro.watermarking.mark import Mark
        from repro.watermarking.ownership import OwnershipClaim

        vault = make_vault(tmp_path)
        service = ProtectionService(vault, audit=False)
        for tenant in ("acme", "globex"):
            service.register_tenant(tenant)
        store = vault.claim_store()
        for index, dataset in enumerate(("b", "a", "c")):
            vault.record_dataset(
                "acme",
                DatasetRecord(dataset_id=dataset, registered_statistic=index, mark_bits="10"),
            )
            for claimant in ("owner", f"rival-{index}"):
                store.add_claim(
                    dataset,
                    OwnershipClaim(
                        claimant=claimant,
                        registered_statistic=1.0,
                        mark=Mark.from_string("10"),
                        watermark_key=WatermarkKey(k1=b"a", k2=b"b", eta=5),
                        encryption_key="e",
                    ),
                )
        status = service.status()
        assert "backend" not in status
        assert list(status["tenants"]) == ["acme", "globex"]
        acme = status["tenants"]["acme"]["datasets"]
        assert list(acme) == ["a", "b", "c"]
        for dataset, details in acme.items():
            assert details["claimants"] == store.claimants(dataset)
            assert details["registered_statistic"] == vault.dataset(
                "acme", dataset
            ).registered_statistic
        assert status["tenants"]["globex"]["datasets"] == {}
        assert service.status("globex")["tenants"].keys() == {"globex"}
        with pytest.raises(VaultError, match="unknown tenant"):
            service.status("nobody")
