"""Tests for the command-line interface (protect / detect on CSV files)."""

import json
import os

import pytest

from repro.cli import main
from repro.datagen.medical import generate_medical_table


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "raw.csv"
    generate_medical_table(size=800, seed=55).to_csv(str(path))
    return str(path)


COMMON = [
    "--k",
    "10",
    "--eta",
    "20",
    "--encryption-key",
    "cli-enc-key",
    "--watermark-secret",
    "cli-wm-secret",
]


class TestCLI:
    def test_protect_then_detect_roundtrip(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["protect", raw_csv, protected_csv, *COMMON]) == 0
        out = capsys.readouterr().out
        mark_line = next(line for line in out.splitlines() if "mark F(v)" in line)
        mark = mark_line.split(":")[1].strip()
        assert len(mark) == 20 and set(mark) <= {"0", "1"}

        exit_code = main(["detect", protected_csv, "--expected-mark", mark, *COMMON])
        detect_out = capsys.readouterr().out
        assert exit_code == 0
        assert "mark loss      : 0%" in detect_out

    def test_detect_with_wrong_secret_fails_threshold(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        main(["protect", raw_csv, protected_csv, *COMMON])
        out = capsys.readouterr().out
        mark = next(line for line in out.splitlines() if "mark F(v)" in line).split(":")[1].strip()

        wrong = [arg if arg != "cli-wm-secret" else "some-other-secret" for arg in COMMON]
        exit_code = main(["detect", protected_csv, "--expected-mark", mark, *wrong])
        capsys.readouterr()
        assert exit_code == 1

    def test_protect_writes_encrypted_identifiers(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        main(["protect", raw_csv, protected_csv, *COMMON])
        capsys.readouterr()
        with open(raw_csv, encoding="utf-8") as raw, open(protected_csv, encoding="utf-8") as protected:
            raw_ssns = {line.split(",")[0] for line in raw.readlines()[1:]}
            protected_ssns = {line.split(",")[0] for line in protected.readlines()[1:]}
        assert raw_ssns.isdisjoint(protected_ssns)

    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit):
            main(["protect", "in.csv", "out.csv"])  # secrets missing, no vault

    def test_json_mode_protect_and_detect(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["protect", raw_csv, protected_csv, "--json", *COMMON]) == 0
        protect_payload = json.loads(capsys.readouterr().out)
        assert protect_payload["rows"] == 800
        assert set(protect_payload["mark"]) <= {"0", "1"}

        exit_code = main(
            ["detect", protected_csv, "--expected-mark", protect_payload["mark"], "--json", *COMMON]
        )
        detect_payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert detect_payload["mark"] == protect_payload["mark"]
        assert detect_payload["mark_loss"] == 0.0
        assert detect_payload["ok"] is True


class TestVaultCLI:
    """The cold-start workflow: every command is a fresh main() invocation."""

    @pytest.fixture(scope="class")
    def vault(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("vault-cli") / "vault")

    def test_full_vault_round_trip(self, raw_csv, vault, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        # Fixed secrets: with random per-run keys, a rare draw can leave one
        # mark bit with no embed bandwidth at this small scale (800 rows,
        # eta=20), flipping a clean-detect bit — the test would flake.
        assert main(
            [
                "vault", "init", vault, "--k", "10", "--eta", "20", "--json",
                "--encryption-key", "cli-roundtrip-ek",
                "--watermark-secret", "cli-roundtrip-ws",
            ]
        ) == 0
        init_payload = json.loads(capsys.readouterr().out)
        assert init_payload["tenant"] == "owner"

        assert main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d", "--json"]) == 0
        protect_payload = json.loads(capsys.readouterr().out)
        assert protect_payload["rows"] == 800

        # Detection re-derives everything from the vault: zero mark loss.
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d", "--workers", "4", "--json"]
        )
        detect_payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert detect_payload["mark"] == protect_payload["mark"]
        assert detect_payload["mark_loss"] == 0.0

        # The dispute resolves from re-hydrated claims; the owner prevails.
        assert main(["dispute", protected_csv, "--vault", vault, "--dataset", "d", "--json"]) == 0
        dispute_payload = json.loads(capsys.readouterr().out)
        assert dispute_payload["winner"] == "owner"

        assert main(["vault", "status", vault, "--json"]) == 0
        status_payload = json.loads(capsys.readouterr().out)
        assert status_payload["tenants"]["owner"]["datasets"]["d"]["rows"] == 800

    def test_vault_init_twice_fails_cleanly(self, vault, capsys):
        assert main(["vault", "init", vault]) == 2
        assert "already initialised" in capsys.readouterr().err

    def test_detect_against_unknown_vault_errors(self, raw_csv, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["detect", raw_csv, "--vault", missing]) == 2
        assert "no vault" in capsys.readouterr().err

    def test_detect_unregistered_dataset_reports_ok_null(self, raw_csv, vault, tmp_path, capsys):
        """No vault record to compare against -> ok is null, not false."""
        protected_csv = str(tmp_path / "protected.csv")
        main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"])
        capsys.readouterr()
        exit_code = main(["detect", protected_csv, "--vault", vault, "--json"])  # dataset "protected"
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["expected_mark"] is None
        assert payload["mark_loss"] is None and payload["ok"] is None

    def test_explicit_parameters_conflict_with_vault(self, raw_csv, vault, tmp_path, capsys):
        """Vault mode must reject, not ignore, parameter and secret flags."""
        with pytest.raises(SystemExit):
            main(["detect", raw_csv, "--vault", vault, "--eta", "20"])
        assert "--eta conflict with --vault" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(
                ["protect", raw_csv, str(tmp_path / "o.csv"), "--vault", vault,
                 "--watermark-secret", "W"]
            )
        assert "--watermark-secret conflict with --vault" in capsys.readouterr().err


class TestExitCodesAndErrorJSON:
    """Satellite: uniform exit codes and {"error": ...} on --json failure paths."""

    def test_missing_vault_json_error(self, raw_csv, capsys):
        assert main(["detect", raw_csv, "--vault", "does-not-exist", "--json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload) == {"error"}
        assert "no vault" in payload["error"]
        assert "error:" in captured.err

    def test_unknown_tenant_json_error(self, raw_csv, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        exit_code = main(
            ["protect", raw_csv, str(tmp_path / "o.csv"), "--vault", vault,
             "--tenant", "nobody", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2
        assert "unknown tenant" in payload["error"]

    def test_bad_csv_json_error(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_text("ssn,age,zip_code,doctor,symptom,prescription\n1,notanage,z,d,s,p\n")
        exit_code = main(
            ["protect", str(bad), str(tmp_path / "o.csv"), "--vault", vault, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2 and "error" in payload

    def test_bad_cell_in_third_chunk_is_located_on_every_runner(self, tmp_path, capsys):
        """detect names the file and physical line whichever runner parsed the chunk."""
        import csv

        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        sample = generate_medical_table(size=1_000, seed=55)
        names = sample.schema.column_names
        rows = [[row[name] for name in names] for row in sample.rows] * 25
        rows[23_455] = list(rows[23_455])
        rows[23_455][names.index("age")] = "not-an-age"  # line 23,457
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([names, *rows])
        capsys.readouterr()
        errors = {}
        for runner_args in ([], ["--runner", "thread"], ["--runner", "process", "--workers", "2"]):
            exit_code = main(
                ["detect", bad, "--vault", vault, "--dataset", "ref", "--json", *runner_args]
            )
            payload = json.loads(capsys.readouterr().out)
            assert exit_code == 2
            errors[" ".join(runner_args) or "default"] = payload["error"]
        expected = (
            f"{bad}, line 23457: column 'age': could not convert string to float: 'not-an-age'"
        )
        assert errors == dict.fromkeys(errors, expected)

    def test_missing_input_file_json_error(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        exit_code = main(
            ["detect", str(tmp_path / "nope.csv"), "--vault", vault, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2 and "error" in payload

    def test_url_and_vault_conflict(self, raw_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", raw_csv, "--vault", str(tmp_path), "--url", "http://x:1"])

    def test_dispute_requires_exactly_one_mode(self, raw_csv):
        with pytest.raises(SystemExit):
            main(["dispute", raw_csv])
        with pytest.raises(SystemExit):
            main(["dispute", raw_csv, "--vault", "v", "--url", "http://x:1"])

    def test_vault_status_url_needs_tenant(self):
        with pytest.raises(SystemExit):
            main(["vault", "status", "--url", "http://x:1", "--token", "t"])

    def test_unreachable_server_json_error(self, raw_csv, tmp_path, capsys):
        exit_code = main(
            ["detect", raw_csv, "--url", "http://127.0.0.1:9", "--token", "t", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2 and "error" in payload


class TestVaultTokenAndRunnerCLI:
    def test_vault_token_issues_and_rotates(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        assert main(["vault", "token", vault, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)["token"]
        assert main(["vault", "token", vault, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)["token"]
        assert first != second
        from repro.service.vault import KeyVault

        vault_obj = KeyVault(vault)
        assert vault_obj.verify_token("owner", second)
        assert not vault_obj.verify_token("owner", first)

    def test_detect_process_runner_vault_mode(self, raw_csv, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        protected_csv = str(tmp_path / "protected.csv")
        main(["vault", "init", vault, "--k", "10", "--eta", "20"])
        main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"])
        capsys.readouterr()

        def detect(runner: str) -> tuple[int, dict]:
            exit_code = main(
                ["detect", protected_csv, "--vault", vault, "--dataset", "d",
                 "--workers", "2", "--runner", runner, "--json"]
            )
            return exit_code, json.loads(capsys.readouterr().out)

        process_exit, process = detect("process")
        thread_exit, thread = detect("thread")
        assert process.pop("runner") == "process" and thread.pop("runner") == "thread"
        assert process == thread and process_exit == thread_exit
        # The vault draws a fresh key, and on 800 rows a mark bit now and then
        # gets no votes; the verdict at the default --max-loss still holds.
        assert process["ok"] is True and process_exit == 0


class TestExplicitSecretModeRunsTheService:
    """Explicit-secret protect/detect run the vault code on a throwaway vault."""

    @pytest.fixture(scope="class")
    def two_chunk_csv(self, tmp_path_factory):
        # One row past the 10,000-row default chunk: two chunks.
        path = tmp_path_factory.mktemp("two-chunk") / "raw.csv"
        generate_medical_table(size=10_001, seed=55).to_csv(str(path))
        return str(path)

    @pytest.fixture
    def vault_roots(self, tmp_path, monkeypatch):
        """A test-owned TMPDIR, and the root of every vault the CLI creates."""
        import tempfile

        from repro.service.vault import KeyVault

        scratch = tmp_path / "tmpdir"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        roots = []
        init = KeyVault.init.__func__

        def spy(cls, root):
            roots.append(str(root))
            return init(cls, root)

        monkeypatch.setattr(KeyVault, "init", classmethod(spy))
        return scratch, roots

    def test_byte_identical_to_vault_mode_across_a_chunk_boundary(
        self, two_chunk_csv, tmp_path, capsys
    ):
        vault = str(tmp_path / "vault")
        assert main(["vault", "init", vault, *COMMON]) == 0
        vault_out, explicit_out = str(tmp_path / "vault.csv"), str(tmp_path / "explicit.csv")
        assert main(["protect", two_chunk_csv, vault_out, "--vault", vault, "--json"]) == 0
        capsys.readouterr()
        assert main(["protect", two_chunk_csv, explicit_out, *COMMON, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chunks"] == 2 and report["rows"] == 10_001
        with open(vault_out, "rb") as left, open(explicit_out, "rb") as right:
            assert left.read() == right.read()

        assert main(["detect", vault_out, "--vault", vault, "--dataset", "raw", "--json"]) == 0
        from_vault = json.loads(capsys.readouterr().out)
        exit_code = main(
            ["detect", explicit_out, *COMMON, "--expected-mark", report["mark"], "--json"]
        )
        explicit = json.loads(capsys.readouterr().out)
        assert exit_code == 0 and explicit["ok"] is True
        for key in ("mark", "coverage", "positions_with_votes", "bit_confidence", "mark_loss"):
            assert explicit[key] == from_vault[key], key

    def test_runner_and_workers_are_honoured_and_reported(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        flags = [*COMMON, "--runner", "thread", "--workers", "2", "--json"]
        assert main(["protect", raw_csv, protected_csv, *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["runner"], report["workers"]) == ("thread", 2)
        assert main(["detect", protected_csv, "--expected-mark", report["mark"], *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["runner"], payload["shards"]) == ("thread", 2)
        assert payload["mark_loss"] == 0.0

    def test_code_is_registered_on_the_throwaway_tenant(self, raw_csv, tmp_path, capsys):
        """Detect --code interleaved decodes with the code protect embedded."""
        protected_csv = str(tmp_path / "protected.csv")
        code = ["--code", "interleaved", "--json"]
        assert main(["protect", raw_csv, protected_csv, *COMMON, *code]) == 0
        mark = json.loads(capsys.readouterr().out)["mark"]
        assert main(["detect", protected_csv, *COMMON, *code, "--expected-mark", mark]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code"] == "interleaved" and payload["mark_loss"] == 0.0

    def test_no_throwaway_vault_survives_success(self, raw_csv, tmp_path, vault_roots, capsys):
        scratch, roots = vault_roots
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["protect", raw_csv, protected_csv, *COMMON]) == 0
        assert main(["detect", protected_csv, *COMMON]) == 0
        capsys.readouterr()
        assert len(roots) == 2
        assert all(os.path.dirname(root) == str(scratch) for root in roots)
        assert os.listdir(scratch) == []

    def test_bad_cell_leaves_no_vault_and_an_unchanged_destination(
        self, raw_csv, tmp_path, vault_roots, capsys
    ):
        scratch, roots = vault_roots
        with open(raw_csv, encoding="utf-8") as handle:
            lines = handle.readlines()
        cells = lines[500].split(",")
        cells[1] = "not-an-age"
        lines[500] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        destination = tmp_path / "protected.csv"
        destination.write_bytes(b"an earlier release\n")
        exit_code = main(["protect", str(bad), str(destination), *COMMON, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2
        assert payload["error"].startswith(f"{bad}, line 501: column 'age'")
        assert destination.read_bytes() == b"an earlier release\n"
        assert len(roots) == 1 and os.listdir(scratch) == []
        assert sorted(os.listdir(tmp_path)) == ["bad.csv", "protected.csv", "tmpdir"]


class TestRemoteRunnerCLI:
    """Satellite: empty-fleet and dead-worker paths exit 2 with {"error"} JSON."""

    @pytest.fixture(scope="class")
    def remote_env(self, raw_csv, tmp_path_factory):
        base = tmp_path_factory.mktemp("remote-cli")
        vault = str(base / "vault")
        protected_csv = str(base / "protected.csv")
        main(["vault", "init", vault, "--k", "10", "--eta", "20"])
        main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"])
        return vault, protected_csv

    def test_empty_fleet_exits_2_with_error_json(self, remote_env, capsys):
        vault, protected_csv = remote_env
        capsys.readouterr()
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d",
             "--runner", "remote", "--json"]
        )
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert exit_code == 2
        assert set(payload) == {"error"}
        assert "worker url" in payload["error"]
        assert "error:" in captured.err

    def test_dead_worker_exits_2_with_error_json(self, remote_env, capsys):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{sock.getsockname()[1]}"
        sock.close()
        vault, protected_csv = remote_env
        capsys.readouterr()
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d",
             "--runner", "remote", "--worker-url", dead, "--json"]
        )
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert exit_code == 2
        assert set(payload) == {"error"}
        assert "worker" in payload["error"]

    def test_live_fleet_detects_identically_to_thread(self, remote_env, capsys):
        from repro.service import KeyVault, ProtectionService
        from repro.service.http import ProtectionApp
        from repro.service.http.prefork import serve_worker_in_thread

        vault, protected_csv = remote_env
        worker = ProtectionService(KeyVault(vault))
        server, url = serve_worker_in_thread(ProtectionApp(worker))
        try:
            capsys.readouterr()
            assert main(
                ["detect", protected_csv, "--vault", vault, "--dataset", "d", "--json"]
            ) == 0
            thread_payload = json.loads(capsys.readouterr().out)
            exit_code = main(
                ["detect", protected_csv, "--vault", vault, "--dataset", "d",
                 "--runner", "remote", "--worker-url", url, "--json"]
            )
            remote_payload = json.loads(capsys.readouterr().out)
            assert exit_code == 0
            assert remote_payload["runner"] == "remote"
            assert remote_payload["mark"] == thread_payload["mark"]
            assert remote_payload["rows"] == thread_payload["rows"]
            assert remote_payload["tuples_selected"] == thread_payload["tuples_selected"]
            assert remote_payload["ok"] is True and remote_payload["mark_loss"] == 0.0
        finally:
            server.close()

    def test_worker_url_requires_remote_runner(self, remote_env):
        vault, protected_csv = remote_env
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--vault", vault, "--worker-url", "http://x:1"])

    def test_worker_token_and_timeout_require_remote_runner(self, remote_env):
        """Fleet flags are rejected, never silently dropped, outside remote mode."""
        vault, protected_csv = remote_env
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--vault", vault, "--worker-token", "secret"])
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--vault", vault, "--worker-timeout", "5"])

    def test_url_client_mode_rejects_remote_runner(self, remote_env):
        _, protected_csv = remote_env
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--url", "http://x:1", "--token", "t",
                  "--runner", "remote"])


class TestVaultAndAuditCLI:
    """vault init / status / audit verify round trips on the registry database."""

    def test_init_and_status_carry_no_backend(self, tmp_path, capsys):
        import os

        vault = str(tmp_path / "vault")
        assert main(["vault", "init", vault, "--json", *COMMON]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "backend" not in payload
        assert os.path.exists(os.path.join(vault, "registry.db"))
        assert main(["vault", "status", vault, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert "backend" not in status and "owner" in status["tenants"]
        assert main(["vault", "status", vault]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"vault {vault}"

    def test_backend_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["vault", "init", str(tmp_path / "vault"), "--backend", "sqlite"])

    def test_audit_verify_tracks_the_pipeline(self, raw_csv, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["vault", "init", vault, *COMMON]) == 0
        assert main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"]) == 0
        assert main(["dispute", protected_csv, "--vault", vault, "--dataset", "d"]) == 0
        capsys.readouterr()
        assert main(["audit", "verify", "--vault", vault, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        # init registers the owner (1) + protect (2) + dispute's detect-free
        # verdict (1) = at least 3 records; exact count is the chain's length.
        assert payload["records"] >= 3
        assert len(payload["head"]) == 64

    def test_audit_verify_reports_broken_chain(self, tmp_path, capsys):
        import os
        import sqlite3

        vault = str(tmp_path / "vault")
        assert main(["vault", "init", vault, *COMMON]) == 0
        conn = sqlite3.connect(os.path.join(vault, "registry.db"))
        with conn:
            conn.execute("UPDATE audit SET event = 'detect' WHERE idx = 0")
        conn.close()
        capsys.readouterr()
        assert main(["audit", "verify", "--vault", vault, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["failed_index"] == 0
