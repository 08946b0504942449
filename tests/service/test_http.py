"""The HTTP frontend: streaming round trips, auth, cold restarts, 20k acceptance."""

import filecmp
import json
import os

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService
from repro.service.http import HTTPServiceError, ProtectionApp, ServiceClient
from repro.service.http.server import serve_in_thread


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("http") / "claims.csv"
    generate_medical_table(size=800, seed=41).to_csv(str(path))
    return str(path)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running server over a fresh vault; yields (base_url, vault_dir, server)."""
    vault_dir = str(tmp_path_factory.mktemp("http") / "vault")
    service = ProtectionService(KeyVault.init(vault_dir), chunk_size=256)
    server, url = serve_in_thread(ProtectionApp(service))
    yield url, vault_dir, server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def owner(served):
    """The registered owner tenant; yields (client, token)."""
    url, _, _ = served
    payload = ServiceClient(url).register_tenant("owner", k=10, eta=20, epsilon=5)
    assert payload["tenant"] == "owner" and payload["token"]
    return ServiceClient(url, payload["token"]), payload["token"]


@pytest.fixture(scope="module")
def protected_http(served, owner, raw_csv, tmp_path_factory):
    """claims.csv protected over HTTP; yields (output_path, report)."""
    client, _ = owner
    out = str(tmp_path_factory.mktemp("http") / "protected.csv")
    report = client.protect("owner", "claims", raw_csv, out)
    return out, report


class TestProtectOverHTTP:
    def test_report_matches_cli_shape(self, protected_http):
        _, report = protected_http
        assert report["rows"] == 800
        assert set(report["mark"]) <= {"0", "1"}
        for key in ("tenant", "dataset", "registered_statistic", "cells_changed",
                    "tuples_selected", "information_loss", "output"):
            assert key in report

    def test_byte_identical_to_in_process_protect(
        self, served, protected_http, raw_csv, tmp_path
    ):
        """The socket round trip changes nothing: same vault secrets, same bytes."""
        _, vault_dir, _ = served
        local_out = str(tmp_path / "local.csv")
        ProtectionService(KeyVault(vault_dir), chunk_size=999).protect(
            "owner", raw_csv, local_out, dataset_id="claims-local"
        )
        http_out, _ = protected_http
        assert filecmp.cmp(http_out, local_out, shallow=False)

    def test_vault_registered_dataset(self, served, protected_http):
        _, vault_dir, _ = served
        _, report = protected_http
        record = KeyVault(vault_dir).dataset("owner", "claims")
        assert record.rows == 800
        assert record.mark_bits == report["mark"]


class TestDetectOverHTTP:
    def test_bit_identical_to_in_process_detect(self, served, owner, protected_http):
        client, _ = owner
        _, vault_dir, _ = served
        http_out, _ = protected_http
        local = ProtectionService(KeyVault(vault_dir)).detect(
            "owner", http_out, dataset_id="claims"
        )
        for runner in ("thread", "process"):
            payload = client.detect("owner", "claims", http_out, workers=2, runner=runner)
            assert payload["mark"] == local.mark
            assert payload["rows"] == local.rows
            assert payload["tuples_selected"] == local.tuples_selected
            assert payload["positions_with_votes"] == local.positions_with_votes
            assert payload["mark_loss"] == 0.0 and payload["ok"] is True
            assert payload["runner"] == runner

    def test_unregistered_dataset_gives_null_verdict(self, owner, protected_http):
        client, _ = owner
        http_out, _ = protected_http
        payload = client.detect("owner", "never-protected", http_out)
        assert payload["expected_mark"] is None
        assert payload["mark_loss"] is None and payload["ok"] is None

    def test_bad_runner_rejected(self, owner, protected_http):
        client, _ = owner
        http_out, _ = protected_http
        with pytest.raises(HTTPServiceError) as excinfo:
            client.detect("owner", "claims", http_out, runner="gpu")
        assert excinfo.value.status == 400


class TestAuth:
    def test_missing_token_is_401(self, served, protected_http):
        url, _, _ = served
        http_out, _ = protected_http
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(url).detect("owner", "claims", http_out)
        assert excinfo.value.status == 401

    def test_wrong_token_is_403(self, served, protected_http):
        url, _, _ = served
        http_out, _ = protected_http
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(url, "not-the-token").detect("owner", "claims", http_out)
        assert excinfo.value.status == 403

    def test_other_tenants_token_is_403(self, served, protected_http):
        url, _, _ = served
        http_out, _ = protected_http
        rival = ServiceClient(url).register_tenant("rival", k=10, eta=20)
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(url, rival["token"]).status("owner")
        assert excinfo.value.status == 403

    def test_rotating_token_invalidates_old_one(self, served, raw_csv, tmp_path):
        url, vault_dir, _ = served
        old = ServiceClient(url).register_tenant("rotator", k=10, eta=20)["token"]
        new = KeyVault(vault_dir).issue_token("rotator")
        assert ServiceClient(url, new).status("rotator")["tenants"]["rotator"]
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(url, old).status("rotator")
        assert excinfo.value.status == 403

    def test_admin_gated_registration(self, tmp_path):
        vault_dir = str(tmp_path / "vault")
        service = ProtectionService(KeyVault.init(vault_dir))
        server, url = serve_in_thread(ProtectionApp(service, admin_token="root-secret"))
        try:
            with pytest.raises(HTTPServiceError) as excinfo:
                ServiceClient(url).register_tenant("owner")
            assert excinfo.value.status == 401
            with pytest.raises(HTTPServiceError) as excinfo:
                ServiceClient(url, "wrong").register_tenant("owner")
            assert excinfo.value.status == 403
            payload = ServiceClient(url).register_tenant("owner", admin_token="root-secret")
            assert payload["token"]
            # Vault-wide status is admin-gated too; the admin token also
            # drives tenant endpoints.
            admin = ServiceClient(url, "root-secret")
            assert "owner" in admin.status()["tenants"]
            assert "owner" in admin.status("owner")["tenants"]
        finally:
            server.shutdown()
            server.server_close()


class TestErrors:
    def test_unknown_tenant_is_404(self, served, protected_http):
        url, _, _ = served
        http_out, _ = protected_http
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(url).register_tenant("owner")  # duplicate
        assert excinfo.value.status == 409
        admin = ServiceClient(url)
        with pytest.raises(HTTPServiceError) as excinfo:
            admin.status("nobody")
        # no token at all -> 401 before the tenant lookup
        assert excinfo.value.status == 401

    def test_error_body_is_uniform_json(self, owner, protected_http):
        client, _ = owner
        http_out, _ = protected_http
        with pytest.raises(HTTPServiceError) as excinfo:
            client.detect("owner", "claims", http_out, runner="gpu")
        assert set(excinfo.value.payload) == {"error"}

    def test_empty_upload_is_400(self, served, owner, tmp_path):
        url, _, _ = served
        client, _ = owner
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(HTTPServiceError) as excinfo:
            client.detect("owner", "claims", str(empty))
        assert excinfo.value.status == 400

    def test_malformed_csv_is_400(self, owner, tmp_path):
        client, _ = owner
        bad = tmp_path / "bad.csv"
        bad.write_text("ssn,age,zip_code,doctor,symptom,prescription\nabc,notanage,x,y,z,w\n")
        with pytest.raises(HTTPServiceError) as excinfo:
            client.protect("owner", "bad", str(bad), str(tmp_path / "out.csv"))
        assert excinfo.value.status == 400
        assert "error" in excinfo.value.payload or excinfo.value.message

    @pytest.mark.parametrize("verb", ["protect", "detect-thread", "detect-process", "dispute"])
    def test_bad_cell_is_located_in_the_request_body(
        self, owner, protected_http, raw_csv, tmp_path, verb
    ):
        """A 400 names the upload's own line, never the server's spool path."""
        client, _ = owner
        lines = open(raw_csv, encoding="utf-8").read().splitlines(keepends=True)
        # Data row 600 (line 601) lies in the third 256-row chunk.
        cells = lines[600].split(",")
        cells[1] = "not-an-age"
        lines[600] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(HTTPServiceError) as excinfo:
            if verb == "protect":
                client.protect("owner", "bad", str(bad), str(tmp_path / "out.csv"))
            elif verb == "dispute":
                client.dispute("owner", "claims", str(bad))
            else:
                runner = verb.split("-")[1]
                client.detect("owner", "claims", str(bad), workers=2, runner=runner)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == (
            "request body, line 601: column 'age': "
            "could not convert string to float: 'not-an-age'"
        )

    def test_unknown_route_is_404(self, served):
        url, _, _ = served
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(url)._json_request("GET", "/nope", authenticated=False)
        assert excinfo.value.status == 404


class TestDisputeOverHTTP:
    def test_dispute_wins_against_cold_server_restart(
        self, served, owner, protected_http, raw_csv
    ):
        """Kill the server, start a fresh one on the same vault: the claim holds."""
        _, vault_dir, _ = served
        _, token = owner
        http_out, report = protected_http
        cold_service = ProtectionService(KeyVault(vault_dir))  # fresh frameworks
        cold_server, cold_url = serve_in_thread(ProtectionApp(cold_service))
        try:
            client = ServiceClient(cold_url, token)
            verdict = client.dispute("owner", "claims", http_out)
            assert verdict["winner"] == "owner"
            assert verdict["dataset"] == "claims"
            assessments = {entry["claimant"]: entry for entry in verdict["assessments"]}
            assert assessments["owner"]["valid"] is True
            # And detection from the cold server still matches the registration.
            payload = client.detect("owner", "claims", http_out)
            assert payload["mark"] == report["mark"] and payload["ok"] is True
        finally:
            cold_server.shutdown()
            cold_server.server_close()


class TestPaperScaleAcceptance:
    """The ISSUE bar: >= 20k rows over HTTP, byte/bit-identical, clean + attacked."""

    SIZE = 20_000

    @pytest.fixture(scope="class")
    def big_env(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("http-20k")
        raw = str(base / "big.csv")
        generate_medical_table(size=self.SIZE, seed=2005).to_csv(raw)
        vault_dir = str(base / "vault")
        service = ProtectionService(KeyVault.init(vault_dir), chunk_size=5_000)
        server, url = serve_in_thread(ProtectionApp(service))
        payload = ServiceClient(url).register_tenant("owner", k=20, eta=50)
        yield {
            "base": str(base),
            "raw": raw,
            "vault": vault_dir,
            "url": url,
            "client": ServiceClient(url, payload["token"]),
        }
        server.shutdown()
        server.server_close()

    def test_20k_round_trip_clean_and_attacked(self, big_env, tmp_path):
        client = big_env["client"]
        http_out = os.path.join(big_env["base"], "protected-http.csv")
        report = client.protect("owner", "big", big_env["raw"], http_out)
        assert report["rows"] == self.SIZE

        # Byte-identity: the same protect through the in-process facade.
        local_out = str(tmp_path / "protected-local.csv")
        ProtectionService(KeyVault(big_env["vault"]), chunk_size=7_500).protect(
            "owner", big_env["raw"], local_out, dataset_id="big-local"
        )
        assert filecmp.cmp(http_out, local_out, shallow=False)

        # A subset-deletion attack at the CSV level: drop 30% of the rows.
        attacked = str(tmp_path / "attacked.csv")
        with open(http_out, encoding="utf-8") as src, open(attacked, "w", encoding="utf-8") as dst:
            header = src.readline()
            dst.write(header)
            for index, line in enumerate(src):
                if index % 10 >= 3:
                    dst.write(line)

        local_service = ProtectionService(KeyVault(big_env["vault"]))
        for suspect in (http_out, attacked):
            local = local_service.detect("owner", suspect, dataset_id="big")
            for runner in ("thread", "process"):
                payload = client.detect("owner", "big", suspect, workers=2, runner=runner)
                assert payload["mark"] == local.mark
                assert payload["rows"] == local.rows
                assert payload["tuples_selected"] == local.tuples_selected
                assert payload["positions_with_votes"] == local.positions_with_votes
        # The clean copy must read back with zero loss end to end.
        assert client.detect("owner", "big", http_out)["mark_loss"] == 0.0
