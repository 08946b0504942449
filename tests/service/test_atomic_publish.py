"""Protect publishes its output atomically, and only after every check passed.

The output goes to a temporary file beside the destination and is renamed
into place after pass 2 and the "input changed between the two streaming
passes" check; only then is the dataset registered.  A failed protect
leaves the old destination byte-unchanged, no temporary file and no
registration.
"""

import hashlib
import os
import stat

import pytest

from repro.datagen.medical import generate_medical_table
from repro.relational.schema import medical_schema
from repro.service import KeyVault, ProtectionService
from repro.service.executor import ShardExecutor
from repro.service.streaming import RowWriter
from repro.service.vault import VaultError

OLD_CONTENTS = b"the previous release, which must survive a failed protect\n"


@pytest.fixture
def env(tmp_path):
    raw = tmp_path / "raw.csv"
    generate_medical_table(size=1_000, seed=7).to_csv(str(raw))
    service = ProtectionService(KeyVault.init(str(tmp_path / "vault")), runner="thread")
    service.register_tenant("owner", k=10, eta=20)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    destination = out_dir / "protected.csv"
    destination.write_bytes(OLD_CONTENTS)
    return {"raw": raw, "service": service, "destination": destination}


def _shrink_input_after_pass1(monkeypatch, raw):
    """Drop the input's last 10 rows once pass 1 has counted it."""
    aggregate = ShardExecutor.aggregate_csv

    def aggregate_then_edit(self, *args, **kwargs):
        totals = aggregate(self, *args, **kwargs)
        lines = raw.read_bytes().splitlines(keepends=True)
        raw.write_bytes(b"".join(lines[:-10]))
        return totals

    monkeypatch.setattr(ShardExecutor, "aggregate_csv", aggregate_then_edit)


class TestFailedProtect:
    def test_input_changed_between_passes_leaves_everything_unchanged(self, env, monkeypatch):
        service, destination = env["service"], env["destination"]
        records_before = service.audit.verify()
        _shrink_input_after_pass1(monkeypatch, env["raw"])
        with pytest.raises(ValueError, match="input changed between the two streaming passes"):
            service.protect("owner", str(env["raw"]), str(destination), dataset_id="d")
        assert destination.read_bytes() == OLD_CONTENTS
        assert os.listdir(destination.parent) == ["protected.csv"]
        with pytest.raises(VaultError):
            service.vault.dataset("owner", "d")
        assert service.claim_store.claims("d") == []
        assert service.audit.verify() == records_before

    def test_exception_inside_writer_removes_the_temp_file(self, tmp_path):
        destination = tmp_path / "out.csv"
        destination.write_bytes(OLD_CONTENTS)
        with pytest.raises(RuntimeError):
            with RowWriter(str(destination), medical_schema()) as writer:
                writer.write_text("partial,row\r\n", 1)
                raise RuntimeError("killed mid-write")
        assert destination.read_bytes() == OLD_CONTENTS
        assert os.listdir(tmp_path) == ["out.csv"]


class TestSuccessfulProtect:
    def test_replaces_the_destination_and_leaves_no_stray_file(self, env, tmp_path):
        service, destination = env["service"], env["destination"]
        fresh = tmp_path / "fresh.csv"
        service.protect("owner", str(env["raw"]), str(fresh), dataset_id="fresh")
        service.protect("owner", str(env["raw"]), str(destination), dataset_id="d")
        assert os.listdir(destination.parent) == ["protected.csv"]
        assert (
            hashlib.sha256(destination.read_bytes()).hexdigest()
            == hashlib.sha256(fresh.read_bytes()).hexdigest()
        )
        assert service.vault.dataset("owner", "d").rows == 1_000


class TestPublishedFile:
    def test_existing_destination_keeps_its_mode(self, env):
        service, destination = env["service"], env["destination"]
        destination.chmod(0o600)
        service.protect("owner", str(env["raw"]), str(destination), dataset_id="d")
        assert stat.S_IMODE(destination.stat().st_mode) == 0o600

    def test_new_destination_gets_the_umask_mode(self, env, tmp_path):
        umask = os.umask(0o027)
        try:
            fresh = tmp_path / "fresh.csv"
            env["service"].protect("owner", str(env["raw"]), str(fresh), dataset_id="d")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640

    def test_symlinked_destination_writes_through_the_link(self, env, tmp_path):
        service, destination = env["service"], env["destination"]
        link = tmp_path / "link.csv"
        link.symlink_to(destination)
        service.protect("owner", str(env["raw"]), str(link), dataset_id="d")
        assert link.is_symlink()
        assert destination.read_bytes() != OLD_CONTENTS
        assert service.vault.dataset("owner", "d").rows == 1_000

    def test_http_protect_output_is_private_while_served(self, env, tmp_path, monkeypatch):
        from repro.service.http import ProtectionApp, ServiceClient
        from repro.service.http import app as http_app
        from repro.service.http.prefork import serve_worker_in_thread

        served_modes = []
        file_body = http_app._FileBody

        class RecordingBody(file_body):
            def __init__(self, path, **kwargs):
                served_modes.append(stat.S_IMODE(os.stat(path).st_mode))
                super().__init__(path, **kwargs)

        monkeypatch.setattr(http_app, "_FileBody", RecordingBody)
        spool = tmp_path / "spool"
        spool.mkdir()
        server, url = serve_worker_in_thread(ProtectionApp(env["service"], spool_dir=str(spool)))
        try:
            token = env["service"].vault.issue_token("owner")
            ServiceClient(url, token).protect("owner", "d", str(env["raw"]), str(tmp_path / "h.csv"))
        finally:
            server.close()
        assert len(served_modes) == 1
        assert served_modes[0] & 0o077 == 0
