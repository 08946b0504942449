"""Legacy JSON-document vaults: refused loudly, imported one way by ``vault migrate``.

``fixtures/legacy_vault`` was written by the retired file backend: a vault
initialised with fixed secrets (``k=10``, ``eta=25``), then a protect of a
1000-row ``generate_medical_table(seed=7)`` CSV as dataset ``trial``, a detect
and a dispute.  ``SHA256SUMS`` pins that raw CSV and the protected output.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.datagen.medical import generate_medical_table
from repro.service.audit import AuditChainError
from repro.service.vault import KeyVault, VaultError, migrate_vault

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "legacy_vault"
LEGACY_EVENTS = ["register", "protect", "detect", "dispute"]


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pinned_sums() -> dict:
    sums = {}
    for line in (FIXTURE / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        sums[name] = digest
    return sums


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("legacy") / "raw.csv"
    generate_medical_table(size=1000, seed=7).to_csv(str(path))
    assert sha256_of(path) == pinned_sums()["raw.csv"], "the fixture's input drifted"
    return str(path)


@pytest.fixture(scope="module")
def migrated(raw_csv, tmp_path_factory):
    """The fixture imported into a fresh vault, plus a re-protect from it."""
    base = tmp_path_factory.mktemp("migrated")
    vault = str(base / "vault")
    assert main(["vault", "migrate", str(FIXTURE), vault, "--json"]) == 0
    output = str(base / "reprotected.csv")
    assert main(["protect", raw_csv, output, "--vault", vault, "--dataset", "again"]) == 0
    return vault, output


def legacy_copy(tmp_path) -> Path:
    copy = tmp_path / "legacy"
    shutil.copytree(FIXTURE, copy)
    return copy


class TestLoudLegacyFailure:
    def test_library_entry_points_name_the_migration(self, tmp_path):
        legacy = legacy_copy(tmp_path)
        for open_vault in (KeyVault, KeyVault.init, KeyVault.open_or_init):
            with pytest.raises(VaultError, match=f"repro vault migrate {legacy} NEW"):
                open_vault(legacy)
        assert not (legacy / "registry.db").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["vault", "status", "{vault}"],
            ["vault", "token", "{vault}"],
            ["vault", "init", "{vault}"],
            ["audit", "verify", "--vault", "{vault}"],
            ["detect", "{csv}", "--vault", "{vault}", "--dataset", "trial"],
            ["dispute", "{csv}", "--vault", "{vault}", "--dataset", "trial"],
        ],
    )
    def test_every_command_fails_with_the_migration_hint(self, tmp_path, capsys, argv):
        legacy = legacy_copy(tmp_path)
        csv_path = tmp_path / "suspect.csv"
        csv_path.write_text("ssn,age,zip_code,doctor,symptom,prescription\n", encoding="utf-8")
        args = [part.format(vault=legacy, csv=csv_path) for part in argv]
        assert main([*args, "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert f"repro vault migrate {legacy} NEW" in error


class TestFixtureMigration:
    def test_reprotect_is_byte_identical_to_the_legacy_output(self, migrated):
        _, output = migrated
        assert sha256_of(output) == pinned_sums()["protected.csv"]

    def test_detect_and_dispute_use_the_legacy_records(self, migrated, capsys):
        vault, output = migrated
        capsys.readouterr()
        assert main(["detect", output, "--vault", vault, "--dataset", "trial", "--json"]) == 0
        detect = json.loads(capsys.readouterr().out)
        assert detect["mark_loss"] == 0.0
        assert main(["dispute", output, "--vault", vault, "--dataset", "trial", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["winner"] == "owner"

    def test_audit_chain_is_the_legacy_records_then_the_seal(self, migrated, capsys):
        vault, _ = migrated
        capsys.readouterr()
        assert main(["audit", "verify", "--vault", vault, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        legacy = [
            json.loads(line)
            for line in (FIXTURE / "audit.log").read_text(encoding="utf-8").splitlines()
        ]
        records = list(KeyVault(vault).audit_log().entries())
        assert records[: len(legacy)] == legacy
        assert [record["event"] for record in records[: len(legacy) + 1]] == [
            *LEGACY_EVENTS,
            "migrate",
        ]
        assert records[len(legacy)]["payload"]["copied_audit_records"] == len(legacy)

    def test_migrate_refuses_an_existing_destination(self, migrated):
        vault, _ = migrated
        with pytest.raises(VaultError, match="already initialised"):
            migrate_vault(FIXTURE, vault)

    def test_registry_is_the_legacy_documents(self, tmp_path):
        summary = migrate_vault(FIXTURE, tmp_path / "new")
        tenants = json.loads((FIXTURE / "vault.json").read_text(encoding="utf-8"))["tenants"]
        claims = json.loads((FIXTURE / "claims.json").read_text(encoding="utf-8"))["claims"]
        assert KeyVault(tmp_path / "new").export_state() == {"tenants": tenants, "claims": claims}
        assert summary == {
            "tenants": len(tenants),
            "claims": sum(len(entries) for entries in claims.values()),
            "audit_records": len(LEGACY_EVENTS) + 1,
        }

    def test_source_is_left_as_it_was(self, tmp_path):
        legacy = legacy_copy(tmp_path)
        before = {path.name: path.read_bytes() for path in legacy.iterdir()}
        migrate_vault(legacy, tmp_path / "new")
        assert {path.name: path.read_bytes() for path in legacy.iterdir()} == before


class TestPartialLegacyVaults:
    def test_vault_document_alone_migrates_with_only_the_seal(self, tmp_path):
        legacy = legacy_copy(tmp_path)
        (legacy / "claims.json").unlink()
        (legacy / "audit.log").unlink()
        summary = migrate_vault(legacy, tmp_path / "new")
        assert summary == {"tenants": 1, "claims": 0, "audit_records": 1}
        vault = KeyVault(tmp_path / "new")
        assert vault.tenants() == ["owner"]
        assert [record["event"] for record in vault.audit_log().entries()] == ["migrate"]

    def test_missing_source_is_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(VaultError, match="no legacy vault"):
            migrate_vault(tmp_path / "empty", tmp_path / "new")
        assert not (tmp_path / "new").exists()

    def test_unreadable_vault_document_is_refused(self, tmp_path):
        legacy = legacy_copy(tmp_path)
        (legacy / "vault.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(VaultError, match="not a readable vault document"):
            migrate_vault(legacy, tmp_path / "new")
        assert not (tmp_path / "new").exists()

    def test_cli_reports_a_missing_source(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        args = ["vault", "migrate", str(tmp_path / "empty"), str(tmp_path / "new"), "--json"]
        assert main(args) == 2
        assert "no legacy vault" in json.loads(capsys.readouterr().out)["error"]


class TestTamperedLegacyChain:
    def test_every_single_byte_edit_refuses_at_the_exact_index(self, tmp_path):
        legacy = legacy_copy(tmp_path)
        log = legacy / "audit.log"
        pristine = log.read_bytes()
        line_ends = [offset for offset, byte in enumerate(pristine) if byte == 0x0A]
        destination = tmp_path / "new"
        for offset in range(len(pristine)):
            mutated = bytearray(pristine)
            mutated[offset] ^= 0x01
            log.write_bytes(bytes(mutated))
            with pytest.raises(AuditChainError) as excinfo:
                migrate_vault(legacy, destination)
            record = next(index for index, end in enumerate(line_ends) if offset <= end)
            assert excinfo.value.index == record, offset
            # Verification runs before anything is written.
            assert not destination.exists()

    def test_cli_reports_the_failed_index(self, tmp_path, capsys):
        legacy = legacy_copy(tmp_path)
        log = legacy / "audit.log"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"detect"', b'"dispute"')
        log.write_bytes(b"".join(lines))
        assert main(["vault", "migrate", str(legacy), str(tmp_path / "new"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["failed_index"] == 2
        assert not (tmp_path / "new").exists()

    def test_unsupported_document_version_is_refused(self, tmp_path):
        legacy = legacy_copy(tmp_path)
        document = json.loads((legacy / "claims.json").read_text(encoding="utf-8"))
        document["version"] = 99
        (legacy / "claims.json").write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(VaultError, match="version 99"):
            migrate_vault(legacy, tmp_path / "new")
        assert not (tmp_path / "new").exists()
