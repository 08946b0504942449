"""Hash-chained audit log: linkage, service capture, and tamper evidence.

The acceptance bar is exercised literally, once per verifier: flipping a
*single byte anywhere* in an exported JSONL chain makes the standalone
``tools/check_audit.py`` fail with the exact index of the damaged record,
and flipping a single byte of any stored field of any ``audit`` row makes
the library verifier (``repro audit verify``) fail with that row's index.
"""

import contextlib
import importlib.util
import io
import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.audit import (
    GENESIS_DIGEST,
    AuditChainError,
    build_record,
    record_digest,
    verify_records,
)
from repro.service.vault import KeyVault

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"


def load_check_audit():
    spec = importlib.util.spec_from_file_location("check_audit", TOOLS_DIR / "check_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_audit = load_check_audit()


def fresh_log(tmp_path):
    return KeyVault.init(tmp_path / "v").audit_log()


class TestRecordFormat:
    def test_genesis_linkage(self, tmp_path):
        log = fresh_log(tmp_path)
        first = log.append("register", "acme")
        assert first["index"] == 0
        assert first["prev"] == GENESIS_DIGEST
        second = log.append("protect", "acme", dataset="d", payload={"rows": 10})
        assert second["prev"] == first["digest"]
        assert log.verify() == 2

    def test_digest_covers_every_field(self, tmp_path):
        record = build_record(0, GENESIS_DIGEST, "register", "acme", None, {})
        for key in ("index", "prev", "ts", "event", "tenant", "dataset", "payload"):
            tampered = dict(record)
            tampered[key] = 7 if key in ("index", "ts") else "tampered"
            assert record_digest(tampered) != record["digest"], key

    def test_verify_records_rejects_reordering(self):
        a = build_record(0, GENESIS_DIGEST, "register", "a", None, {})
        b = build_record(1, a["digest"], "register", "b", None, {})
        assert verify_records([a, b]) == 2
        with pytest.raises(AuditChainError) as excinfo:
            verify_records([b, a])
        assert excinfo.value.index == 0

    def test_append_resumes_after_reopen(self, tmp_path):
        fresh_log(tmp_path).append("register", "acme")
        reopened = KeyVault(tmp_path / "v").audit_log()
        record = reopened.append("token", "acme")
        assert record["index"] == 1
        assert reopened.verify() == 2

    def test_append_raw_refuses_a_record_that_does_not_link(self, tmp_path):
        log = fresh_log(tmp_path)
        log.append("register", "acme")
        orphan = build_record(1, GENESIS_DIGEST, "token", "acme", None, {})
        with pytest.raises(AuditChainError) as excinfo:
            log.append_raw(orphan)
        assert excinfo.value.index == 1
        assert log.verify() == 1

    def test_threaded_appends_stay_linear(self, tmp_path):
        """Handler-pool threads each hold a connection; the chain never forks."""
        import threading

        root = tmp_path / "v"
        KeyVault.init(root)

        def append(worker):
            log = KeyVault(root).audit_log()
            for step in range(5):
                log.append("detect", f"tenant-{worker}", payload={"step": step})

        threads = [threading.Thread(target=append, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log = KeyVault(root).audit_log()
        assert log.verify() == 20
        assert [record.index for record in log.entries()] == list(range(20))


class TestServiceCapture:
    """Every successful service mutation lands exactly one chained record."""

    @pytest.fixture()
    def service_vault(self, tmp_path, raw_table_csv):
        from repro.service.api import ProtectionService

        vault = KeyVault.init(tmp_path / "v")
        service = ProtectionService(vault, chunk_size=256)
        service.register_tenant("owner", k=10, eta=20, epsilon=5)
        out = str(tmp_path / "protected.csv")
        service.protect("owner", raw_table_csv, out, dataset_id="d")
        service.detect("owner", out, dataset_id="d")
        service.dispute("owner", out, dataset_id="d")
        return vault

    @pytest.fixture(scope="class")
    def raw_table_csv(self, tmp_path_factory):
        from repro.datagen.medical import generate_medical_table

        path = tmp_path_factory.mktemp("audit-data") / "raw.csv"
        generate_medical_table(size=1200, seed=7).to_csv(str(path))
        return str(path)

    def test_event_sequence_and_verifiable_chain(self, service_vault):
        log = service_vault.audit_log()
        events = [record["event"] for record in log.entries()]
        assert events == ["register", "protect", "detect", "dispute"]
        assert log.verify() == 4

    def test_payloads_hold_outcomes_not_secrets(self, service_vault):
        records = list(service_vault.audit_log().entries())
        register, protect, detect, dispute = records
        assert register["payload"]["eta"] == 20
        assert protect["payload"]["rows"] == 1200
        assert protect["dataset"] == "d"
        assert detect["payload"]["mark_loss"] == 0.0
        assert dispute["payload"]["winner"] == "owner"
        tenant = service_vault.tenant("owner")
        blob = json.dumps(records)
        assert tenant.encryption_key not in blob
        assert tenant.watermark_secret not in blob

    def test_audit_false_disables_capture(self, tmp_path):
        from repro.service.api import ProtectionService

        vault = KeyVault.init(tmp_path / "v")
        service = ProtectionService(vault, audit=False)
        service.register_tenant("owner")
        assert service.audit is None
        assert vault.audit_log().verify() == 0


def seeded_chain(tmp_path, records=6):
    """A vault whose audit table holds *records* chained entries."""
    vault = KeyVault.init(tmp_path / "chain")
    log = vault.audit_log()
    for index in range(records):
        log.append("register", f"tenant-{index}", payload={"step": index})
    return Path(vault.root)


def exported_chain(tmp_path, records=6):
    """The seeded chain exported as canonical JSONL by tools/check_audit.py."""
    exported = tmp_path / "chain.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert check_audit.main([str(seeded_chain(tmp_path, records)), "--export", str(exported)]) == 0
    return exported


def flip(value: str, offset: int) -> str:
    """*value* with the character at *offset* changed by one bit."""
    return value[:offset] + chr(ord(value[offset]) ^ 0x01) + value[offset + 1 :]


class TestTamperEvidence:
    def test_every_single_byte_flip_of_a_row_reports_its_index(self, tmp_path):
        """Each stored field of each audit row, one byte at a time."""
        root = seeded_chain(tmp_path, records=4)
        log = KeyVault(root).audit_log()
        conn = sqlite3.connect(root / "registry.db")
        conn.execute("PRAGMA synchronous=OFF")  # tampering needs no durability
        rows = conn.execute(
            "SELECT idx, prev, event, tenant, dataset, payload, digest FROM audit ORDER BY idx"
        ).fetchall()
        columns = ("prev", "event", "tenant", "dataset", "payload", "digest")
        checked = 0
        for idx, *values in rows:
            for column, value in zip(columns, values):
                for offset in range(len(value) if value is not None else 1):
                    tampered = "x" if value is None else flip(value, offset)
                    with conn:
                        conn.execute(f"UPDATE audit SET {column} = ? WHERE idx = ?", (tampered, idx))
                    with pytest.raises(AuditChainError) as excinfo:
                        log.verify()
                    assert excinfo.value.index == idx, (column, offset)
                    with conn:
                        conn.execute(f"UPDATE audit SET {column} = ? WHERE idx = ?", (value, idx))
                    checked += 1
            for column, tampered in (("ts", "ts + 1e-6"), ("idx", "idx + 1000")):
                with conn:
                    conn.execute(f"UPDATE audit SET {column} = {tampered} WHERE idx = ?", (idx,))
                with pytest.raises(AuditChainError) as excinfo:
                    log.verify()
                assert excinfo.value.index == idx, column
                original = idx + 1000 if column == "idx" else idx
                undo = "ts - 1e-6" if column == "ts" else "idx - 1000"
                with conn:
                    conn.execute(f"UPDATE audit SET {column} = {undo} WHERE idx = ?", (original,))
        conn.close()
        assert checked > 4 * 64
        assert log.verify() == 4

    def test_sqlite_deleted_row_breaks_at_the_gap(self, tmp_path):
        root = seeded_chain(tmp_path, records=6)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("DELETE FROM audit WHERE idx = 2")
        conn.close()
        with pytest.raises(AuditChainError) as excinfo:
            KeyVault(root).audit_log().verify()
        assert excinfo.value.index == 2

    def test_sqlite_swapped_rows_break_at_the_first_swapped_index(self, tmp_path):
        root = seeded_chain(tmp_path, records=6)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("UPDATE audit SET idx = -1 WHERE idx = 2")
            conn.execute("UPDATE audit SET idx = 2 WHERE idx = 3")
            conn.execute("UPDATE audit SET idx = 3 WHERE idx = -1")
        conn.close()
        with pytest.raises(AuditChainError) as excinfo:
            KeyVault(root).audit_log().verify()
        assert excinfo.value.index == 2

    def test_every_single_byte_flip_of_the_export_reports_its_index(self, tmp_path, capsys):
        """The stdlib verifier over a check_audit --export JSONL chain."""
        path = exported_chain(tmp_path, records=4)
        pristine = path.read_bytes()
        line_ends = [i for i, b in enumerate(pristine) if b == 0x0A]
        for offset in range(len(pristine)):
            mutated = bytearray(pristine)
            mutated[offset] ^= 0x01
            path.write_bytes(bytes(mutated))
            assert check_audit.main([str(path), "--json"]) == 1
            report = json.loads(capsys.readouterr().out)
            record = next(i for i, end in enumerate(line_ends) if offset <= end)
            assert report["failed_index"] == record, offset
        path.write_bytes(pristine)
        assert check_audit.main([str(path)]) == 0

    def test_truncated_export_reports_tail_index(self, tmp_path, capsys):
        path = exported_chain(tmp_path, records=5)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])  # chop into the last record
        assert check_audit.main([str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["failed_index"] == 4

    def test_deleting_a_middle_export_record_breaks_at_the_gap(self, tmp_path, capsys):
        path = exported_chain(tmp_path, records=5)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + lines[3:]))
        assert check_audit.main([str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["failed_index"] == 2


class TestCheckAuditTool:
    """tools/check_audit.py — the independent, stdlib-only verifier."""

    def test_ok_on_vault(self, tmp_path, capsys):
        root = seeded_chain(tmp_path)
        assert check_audit.main(["--verify", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["records"] == 6

    def test_heads_agree_with_library(self, tmp_path, capsys):
        root = seeded_chain(tmp_path)
        check_audit.main([str(root), "--json"])
        report = json.loads(capsys.readouterr().out)
        records = list(KeyVault(root).audit_log().entries())
        assert report["head"] == records[-1]["digest"]

    def test_sqlite_edit_gives_exit_1_and_exact_index(self, tmp_path, capsys):
        root = seeded_chain(tmp_path)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("UPDATE audit SET event = 'detect' WHERE idx = 4")
        conn.close()
        assert check_audit.main([str(root), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failed_index"] == 4

    def test_deleted_row_gives_exit_1_and_index_of_the_gap(self, tmp_path, capsys):
        root = seeded_chain(tmp_path)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("DELETE FROM audit WHERE idx = 3")
        conn.close()
        assert check_audit.main([str(root), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["failed_index"] == 3

    def test_missing_chain_gives_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert check_audit.main([str(tmp_path / "empty"), "--json"]) == 2
        assert "error" in json.loads(capsys.readouterr().out)

    def test_export_writes_canonical_jsonl(self, tmp_path, capsys):
        root = seeded_chain(tmp_path)
        exported = tmp_path / "chain.jsonl"
        assert check_audit.main([str(root), "--export", str(exported)]) == 0
        capsys.readouterr()
        # The export itself re-verifies as a JSONL chain.
        lines = exported.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        assert check_audit.main([str(exported)]) == 0

    def test_runs_as_a_subprocess_without_repro_on_path(self, tmp_path):
        """The auditor story: stock python + the script + the chain file."""
        root = seeded_chain(tmp_path)
        result = subprocess.run(
            [sys.executable, str(TOOLS_DIR / "check_audit.py"), "--verify", str(root)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "audit chain OK" in result.stdout
