"""End-to-end tests for the ProtectionService facade (vault cold starts)."""

import filecmp
import os
import subprocess
import sys

import pytest

import repro
from repro.datagen.medical import generate_medical_table
from repro.relational.io import write_csv_rows
from repro.relational.schema import medical_schema
from repro.service import KeyVault, ProtectionService
from repro.service.vault import VaultError


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("api") / "claims.csv"
    generate_medical_table(size=1200, seed=31).to_csv(str(path))
    return str(path)


@pytest.fixture(scope="module")
def vault_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("api") / "vault")


@pytest.fixture(scope="module")
def protected(raw_csv, vault_dir, tmp_path_factory):
    """Vault + one protected dataset, built once for the module."""
    vault = KeyVault.init(vault_dir)
    service = ProtectionService(vault)
    service.register_tenant("owner", k=10, eta=20, epsilon=5)
    output = str(tmp_path_factory.mktemp("api") / "protected.csv")
    outcome = service.protect("owner", raw_csv, output, chunk_size=256)
    return outcome


class TestProtect:
    def test_outcome_registered_in_vault(self, protected, vault_dir):
        vault = KeyVault(vault_dir)
        record = vault.dataset("owner", "claims")
        assert record.rows == 1200
        assert record.mark_bits == protected.mark
        assert record.registered_statistic == protected.registered_statistic
        assert ProtectionService(vault).claim_store.claimants("claims") == ["owner"]

    def test_chunk_size_does_not_change_output(self, protected, raw_csv, vault_dir, tmp_path):
        """Streaming is invisible: any chunking emits byte-identical CSVs."""
        other = str(tmp_path / "rechunked.csv")
        # A separate vault so the dataset record of the fixture stays intact.
        rechunk_vault = KeyVault.init(tmp_path / "vault2")
        record = KeyVault(vault_dir).tenant("owner")
        service = ProtectionService(rechunk_vault)
        service.register_tenant(
            "owner",
            encryption_key=record.encryption_key,
            watermark_secret=record.watermark_secret,
            k=record.k,
            eta=record.eta,
            epsilon=record.epsilon,
        )
        service.protect("owner", raw_csv, other, chunk_size=999)
        assert filecmp.cmp(protected.output, other, shallow=False)

    def test_unknown_tenant_rejected(self, vault_dir, raw_csv, tmp_path):
        with pytest.raises(VaultError, match="unknown tenant"):
            ProtectionService(vault_dir).protect("nobody", raw_csv, str(tmp_path / "x.csv"))


class TestColdStartDetect:
    def test_fresh_service_recovers_mark_with_zero_loss(self, protected, vault_dir):
        service = ProtectionService(vault_dir)  # cold: only the vault path
        outcome = service.detect("owner", protected.output, dataset_id="claims", chunk_size=173)
        assert outcome.expected_mark == protected.mark
        assert outcome.mark == protected.mark
        assert outcome.mark_loss == 0.0
        assert outcome.matches is True
        assert outcome.rows == 1200

    def test_shard_parallel_matches_serial(self, protected, vault_dir):
        service = ProtectionService(vault_dir)
        serial = service.detect("owner", protected.output, dataset_id="claims", workers=1)
        parallel = service.detect("owner", protected.output, dataset_id="claims", workers=4)
        assert parallel.mark == serial.mark
        assert parallel.tuples_selected == serial.tuples_selected
        assert parallel.positions_with_votes == serial.positions_with_votes

    def test_unregistered_dataset_reports_mark_only(self, protected, vault_dir):
        outcome = ProtectionService(vault_dir).detect(
            "owner", protected.output, dataset_id="never-protected"
        )
        assert outcome.expected_mark is None and outcome.mark_loss is None
        assert outcome.matches is None

    def test_cold_process_round_trip(self, protected, vault_dir):
        """The acceptance bar, literally: detection from a *new process*."""
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "detect",
                protected.output,
                "--vault",
                vault_dir,
                "--dataset",
                "claims",
                "--workers",
                "2",
                "--json",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        import json

        payload = json.loads(result.stdout)
        assert payload["mark"] == protected.mark
        assert payload["mark_loss"] == 0.0
        assert payload["ok"] is True


class TestDispute:
    def test_owner_wins_from_rehydrated_claims(self, protected, vault_dir):
        service = ProtectionService(vault_dir)  # cold start
        verdict = service.dispute("owner", protected.output, dataset_id="claims")
        assert verdict.winner == "owner"

    def test_rival_with_wrong_secrets_loses(self, protected, vault_dir, tmp_path, raw_csv):
        # The rival registers their own tenant (wrong secrets) and claims the
        # owner's dataset: classic Attack 1 of Section 5.4.
        service = ProtectionService(vault_dir)
        if "mallory" not in service.vault:
            service.register_tenant("mallory", k=10, eta=20, epsilon=5)
        mallory = service.framework_for("mallory")
        service.register_claim("claims", mallory.owner_claim(123456789.0, "mallory"))

        verdict = ProtectionService(vault_dir).dispute("owner", protected.output, dataset_id="claims")
        by_claimant = {assessment.claimant: assessment for assessment in verdict.assessments}
        assert verdict.winner == "owner"
        assert by_claimant["mallory"].valid is False
        assert by_claimant["mallory"].decryption_ok is False or not by_claimant["mallory"].statistic_ok

    def test_dispute_without_claims_fails(self, vault_dir, protected):
        with pytest.raises(VaultError, match="no claims"):
            ProtectionService(vault_dir).dispute("owner", protected.output, dataset_id="ghost")


class TestStatusAndErrors:
    def test_status_snapshot(self, protected, vault_dir):
        status = ProtectionService(vault_dir).status("owner")
        dataset = status["tenants"]["owner"]["datasets"]["claims"]
        assert dataset["rows"] == 1200
        assert dataset["mark"] == protected.mark
        assert "owner" in dataset["claimants"]

    def test_protect_rejects_non_numeric_identifiers(self, vault_dir, tmp_path):
        from repro.ontology.registry import standard_ontology

        trees = standard_ontology()
        schema = medical_schema()
        bad = str(tmp_path / "bad.csv")
        write_csv_rows(
            bad,
            schema,
            [
                {
                    "ssn": "not-numeric",
                    "age": 40,
                    "zip_code": trees["zip_code"].leaves()[0].value,
                    "doctor": trees["doctor"].leaves()[0].value,
                    "symptom": trees["symptom"].leaves()[0].value,
                    "prescription": trees["prescription"].leaves()[0].value,
                }
            ],
        )
        with pytest.raises(ValueError, match="no numeric identifiers"):
            ProtectionService(vault_dir).protect("owner", bad, str(tmp_path / "out.csv"))
