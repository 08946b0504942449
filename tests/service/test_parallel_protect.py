"""Runner-parallel protect (pass 2): byte-identity, degenerate and adversarial cases.

The PR 5 acceptance bar: once pass 1 fixes the binning plan, rewrite + embed
+ emit per chunk on any runner must produce a CSV byte-identical to the
serial streaming path — at 20k rows, over thread and process pools, through
the HTTP frontend, and under an adversarial quoted-newline input that probes
the quote-parity chunker.  The remote runner is detect-only and must be
refused with a :class:`ValueError` at every entry point.
"""

import filecmp
import os

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService
from repro.service.executor import ShardExecutor
from repro.service.http import HTTPServiceError, ProtectionApp, ServiceClient
from repro.service.http.prefork import serve_worker_in_thread
from repro.service.runners import RemoteRunner

ROWS_20K = 20_000
CHUNK = 4_096
WORKERS = 4


@pytest.fixture(scope="module")
def big_env(tmp_path_factory):
    """A 20k-row table, a vault/service and the serial protect output."""
    base = tmp_path_factory.mktemp("parallel-protect")
    raw = str(base / "raw.csv")
    generate_medical_table(size=ROWS_20K, seed=2005).to_csv(raw)
    service = ProtectionService(KeyVault.init(str(base / "vault")), chunk_size=CHUNK)
    service.register_tenant("owner", k=20, eta=50, epsilon=5)
    # Small-k tenant for the sub-1k degenerate/adversarial tables (the 20k
    # tenant's k+epsilon=25 is not satisfiable at a few hundred rows).
    service.register_tenant("smallk", k=2, eta=20, epsilon=1)
    serial = str(base / "serial.csv")
    outcome = service.protect("owner", raw, serial, dataset_id="big", workers=1)
    assert outcome.runner == "process" and outcome.workers == 1
    assert outcome.chunks == -(-ROWS_20K // CHUNK)
    return {"base": str(base), "raw": raw, "service": service, "serial": serial}


class TestByteIdentityAt20k:
    @pytest.mark.parametrize("runner", ["thread", "process"])
    def test_parallel_matches_serial_bytes_and_counters(self, big_env, runner, tmp_path):
        service = big_env["service"]
        out = str(tmp_path / f"{runner}.csv")
        outcome = service.protect(
            "owner", big_env["raw"], out, dataset_id="big", workers=WORKERS, runner=runner
        )
        assert outcome.runner == runner and outcome.workers == WORKERS
        assert outcome.rows == ROWS_20K
        assert len(outcome.chunk_seconds) == outcome.chunks > 1
        assert all(seconds > 0.0 for seconds in outcome.chunk_seconds)
        assert filecmp.cmp(big_env["serial"], out, shallow=False)

    def test_detect_recovers_mark_from_parallel_output(self, big_env, tmp_path):
        service = big_env["service"]
        out = str(tmp_path / "process.csv")
        service.protect(
            "owner", big_env["raw"], out, dataset_id="big", workers=WORKERS, runner="process"
        )
        detected = service.detect("owner", out, dataset_id="big", workers=2)
        assert detected.mark_loss == 0.0


class TestDegenerateCases:
    def test_single_chunk_input(self, big_env, tmp_path):
        """Fewer rows than one chunk: one work item, still byte-identical."""
        service = big_env["service"]
        small_raw = str(tmp_path / "small.csv")
        generate_medical_table(size=600, seed=9).to_csv(small_raw)
        serial = str(tmp_path / "serial.csv")
        parallel = str(tmp_path / "parallel.csv")
        a = service.protect("smallk", small_raw, serial, dataset_id="small", workers=1)
        b = service.protect(
            "smallk", small_raw, parallel, dataset_id="small", workers=WORKERS, runner="process"
        )
        assert a.chunks == b.chunks == 1
        assert filecmp.cmp(serial, parallel, shallow=False)

    @pytest.mark.parametrize("runner", ["thread", "process"])
    def test_empty_table_raises_like_serial(self, big_env, runner, tmp_path):
        """A header-only CSV fails in pass 1 (no statistic), never in pass 2."""
        service = big_env["service"]
        empty = str(tmp_path / "empty.csv")
        with open(empty, "w", encoding="utf-8") as handle:
            handle.write("ssn,age,zip_code,doctor,symptom,prescription\n")
        with pytest.raises(ValueError, match="no numeric identifiers"):
            service.protect(
                "owner", empty, str(tmp_path / "out.csv"), dataset_id="empty",
                workers=WORKERS, runner=runner,
            )

    def test_pass2_emits_header_for_empty_input(self, big_env, tmp_path):
        """The executor half alone: an empty chunk stream still writes a header."""
        from repro.relational.schema import medical_schema
        from repro.service.runners import ProtectPlan, WatermarkerSpec

        service = big_env["service"]
        framework = service.framework_for("owner")
        empty = str(tmp_path / "empty.csv")
        schema = medical_schema()
        with open(empty, "w", encoding="utf-8") as handle:
            handle.write(",".join(schema.column_names) + "\n")
        out = str(tmp_path / "out.csv")
        plan = ProtectPlan(
            spec=WatermarkerSpec.of(framework.watermarker()),
            schema=schema,
            metadata={},  # never consulted: no chunks reach a worker
            identifying_columns=("ssn",),
            encryption_key=framework.encryption_key,
            mark_bits="1010",
        )
        run = ShardExecutor(2).protect_csv(plan, empty, out, expected_rows=0, chunk_size=CHUNK)
        assert run.rows == run.chunks == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert handle.read() == ",".join(schema.column_names) + "\r\n"


class TestAdversarialQuotedNewlines:
    def test_quoted_newline_identifiers_chunk_safely(self, big_env, tmp_path):
        """Quoted newlines in cells must not be split by the protect chunker.

        The ssn column is attacker-ish free text to the chunker (it is
        encrypted, not parsed), so records whose physical lines outnumber
        their logical rows probe exactly the quote-parity deferral — with a
        chunk size small enough that naive line counting would cut
        mid-record.
        """
        import csv as _csv

        service = big_env["service"]
        table = generate_medical_table(size=600, seed=13)
        rows = [dict(row) for row in table.rows]
        for index, row in enumerate(rows):
            if index % 3 == 0:
                row["ssn"] = f"{row['ssn']}\nline-{index}"
        adversarial = str(tmp_path / "adversarial.csv")
        with open(adversarial, "w", newline="", encoding="utf-8") as handle:
            writer = _csv.DictWriter(handle, fieldnames=table.schema.column_names)
            writer.writeheader()
            writer.writerows(rows)

        serial = str(tmp_path / "serial.csv")
        parallel = str(tmp_path / "parallel.csv")
        a = service.protect(
            "smallk", adversarial, serial, dataset_id="adv", workers=1, chunk_size=25
        )
        b = service.protect(
            "smallk", adversarial, parallel, dataset_id="adv",
            workers=WORKERS, runner="process", chunk_size=25,
        )
        assert a.rows == b.rows == 600
        assert b.chunks > 1
        assert filecmp.cmp(serial, parallel, shallow=False)


class TestRemoteRunnerRefused:
    def test_service_rejects_remote_instance_without_stray_output(self, big_env, tmp_path):
        service = big_env["service"]
        out = str(tmp_path / "out.csv")
        with pytest.raises(ValueError, match="detect-only"):
            service.protect(
                "owner", big_env["raw"], out, dataset_id="big",
                runner=RemoteRunner(["http://127.0.0.1:9"]),
            )
        # The refusal happens before the RowWriter opens: no header-only file.
        assert not os.path.exists(out)

    def test_remote_default_coordinator_falls_back_for_protect(self, big_env, tmp_path):
        """A detect-fleet coordinator still protects (locally), like pre-PR."""
        from repro.service import KeyVault, ProtectionService

        coordinator = ProtectionService(
            KeyVault(os.path.join(big_env["base"], "vault")),
            runner=RemoteRunner(["http://127.0.0.1:9"]),
            chunk_size=CHUNK,
        )
        small_raw = str(tmp_path / "small.csv")
        generate_medical_table(size=600, seed=9).to_csv(small_raw)
        out = str(tmp_path / "out.csv")
        outcome = coordinator.protect("smallk", small_raw, out, dataset_id="coord")
        assert outcome.runner == "process" and outcome.rows == 600

    def test_cli_rejects_remote_with_error_json(self, big_env, tmp_path, capsys):
        from repro.cli import main

        vault = os.path.join(big_env["base"], "vault")
        code = main(
            [
                "protect", big_env["raw"], str(tmp_path / "out.csv"),
                "--vault", vault, "--dataset", "big", "--runner", "remote", "--json",
            ]
        )
        captured = capsys.readouterr()
        import json

        assert code == 2
        assert "detect-only" in json.loads(captured.out)["error"]


class TestProtectOverHTTPRunners:
    def test_http_process_protect_byte_identical_and_metered(self, big_env, tmp_path):
        service = big_env["service"]
        app = ProtectionApp(service)
        server, url = serve_worker_in_thread(app)
        try:
            token = service.vault.issue_token("owner")
            client = ServiceClient(url, token)
            out = str(tmp_path / "http-process.csv")
            report = client.protect(
                "owner", "big", big_env["raw"], out, workers=2, runner="process"
            )
            assert report["runner"] == "process" and report["workers"] == 2
            assert filecmp.cmp(big_env["serial"], out, shallow=False)
            snapshot = client.metrics()
            runners = snapshot["protect"]["runners"]
            assert runners["process"]["calls"] == 1
            assert runners["process"]["rows"] == ROWS_20K
            assert snapshot["protect"]["rows"] == ROWS_20K
            with pytest.raises(HTTPServiceError) as excinfo:
                client.protect("owner", "big", big_env["raw"], out, runner="remote")
            assert excinfo.value.status == 400
            assert "detect-only" in str(excinfo.value)
        finally:
            server.close()
