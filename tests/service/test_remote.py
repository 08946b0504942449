"""Distributed detection: a RemoteRunner fleet is bit-identical to serial.

The acceptance bar of the distributed ISSUE: a coordinator detecting over a
2-worker in-process fleet (real sockets, real ``repro serve`` apps) must
produce exactly the verdict a thread-runner detect produces — on a clean and
an attacked 20k-row table — plus failover, auth, empty-fleet/dead-fleet
error paths and the ``/metrics`` observability surface.
"""

import csv
import os
import socket

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import (
    FleetError,
    KeyVault,
    ProtectionService,
    RemoteRunner,
    ShardExecutor,
    resolve_runner,
)
from repro.service.http import HTTPServiceError, ProtectionApp, ServiceClient
from repro.service.http.prefork import serve_worker_in_thread
from repro.service.runners import WatermarkerSpec
from repro.service.wire import spec_to_json
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey


def _dead_url() -> str:
    """A URL nothing listens on (bind an ephemeral port, then release it)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def _outcomes_equal(left, right) -> bool:
    return (
        left.mark == right.mark
        and left.rows == right.rows
        and left.tuples_selected == right.tuples_selected
        and left.positions_with_votes == right.positions_with_votes
        and left.coverage == right.coverage
        and left.mark_loss == right.mark_loss
    )


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A protecting coordinator plus two live workers; the 20k acceptance env.

    Workers run over their *own* fresh vaults — distributed detection never
    reads a worker's vault, the chunk requests carry everything — which is
    itself part of what this suite asserts.
    """
    base = tmp_path_factory.mktemp("remote")
    raw = str(base / "raw.csv")
    protected = str(base / "protected.csv")
    generate_medical_table(size=20_000, seed=2005).to_csv(raw)
    vault_dir = str(base / "vault")
    service = ProtectionService(KeyVault.init(vault_dir), chunk_size=5_000)
    service.register_tenant("owner", k=20, eta=50)
    service.protect("owner", raw, protected, dataset_id="big")

    servers, urls = [], []
    for name in ("w1", "w2"):
        worker = ProtectionService(KeyVault.init(str(base / name)))
        server, url = serve_worker_in_thread(ProtectionApp(worker))
        servers.append(server)
        urls.append(url)
    yield {
        "base": str(base),
        "vault": vault_dir,
        "service": service,
        "protected": protected,
        "urls": urls,
    }
    for server in servers:
        server.close()


@pytest.fixture(scope="module")
def attacked_csv(fleet):
    """The protected table after a CSV-level alteration + deletion attack."""
    path = os.path.join(fleet["base"], "attacked.csv")
    with open(fleet["protected"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    kept = [rows[0]]
    for index, row in enumerate(rows[1:]):
        if index % 10 < 3:  # subset deletion: drop 30%
            continue
        if index % 7 == 0:  # subset alteration: stomp a watermark column
            row[3] = "Dr-Stomped"
        kept.append(row)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(kept)
    return path


class TestFleetBitIdentity:
    """The ISSUE acceptance: 2 live workers == thread runner, bit for bit, at 20k."""

    def test_clean_20k(self, fleet):
        service = fleet["service"]
        thread = service.detect(
            "owner", fleet["protected"], dataset_id="big", workers=4, runner="thread"
        )
        remote = service.detect(
            "owner",
            fleet["protected"],
            dataset_id="big",
            workers=4,
            runner=RemoteRunner(fleet["urls"]),
        )
        assert _outcomes_equal(remote, thread)
        assert remote.rows == 20_000
        assert remote.runner == "remote" and thread.runner == "thread"
        assert remote.mark_loss == 0.0

    def test_attacked_20k(self, fleet, attacked_csv):
        service = fleet["service"]
        thread = service.detect("owner", attacked_csv, dataset_id="big", workers=4, runner="thread")
        remote = service.detect(
            "owner",
            attacked_csv,
            dataset_id="big",
            workers=4,
            runner=RemoteRunner(fleet["urls"]),
        )
        assert _outcomes_equal(remote, thread)
        assert remote.rows == 14_000

    def test_framework_protected_table_through_the_fleet(
        self, fleet, protection_framework, protected_small, detect_via_csv
    ):
        """An in-library protected table, written out, detects on the fleet as serially."""
        from repro.watermarking.hierarchical import HierarchicalWatermarker

        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        binned = protected_small.watermarked
        serial = watermarker.detect(binned, 20)
        remote = detect_via_csv(
            ShardExecutor(2, runner=RemoteRunner(fleet["urls"])),
            watermarker,
            binned,
            20,
            chunk_size=400,
        )
        assert serial.mark.bits == remote.mark.bits
        assert serial.wmd_bits == remote.wmd_bits
        assert serial.tuples_selected == remote.tuples_selected
        assert serial.cells_read == remote.cells_read
        assert serial.votes_cast == remote.votes_cast


class TestFailover:
    def test_dead_worker_in_fleet_is_survived(self, fleet):
        service = fleet["service"]
        thread = service.detect("owner", fleet["protected"], dataset_id="big", workers=2)
        limping = RemoteRunner([_dead_url(), *fleet["urls"]])
        remote = service.detect(
            "owner", fleet["protected"], dataset_id="big", workers=2, runner=limping
        )
        assert _outcomes_equal(remote, thread)

    def test_all_workers_dead_is_fleet_error(self, fleet):
        service = fleet["service"]
        with pytest.raises(FleetError, match="remote worker"):
            service.detect(
                "owner",
                fleet["protected"],
                dataset_id="big",
                runner=RemoteRunner([_dead_url(), _dead_url()]),
            )

    def test_empty_fleet_is_value_error(self):
        with pytest.raises(ValueError, match="at least one worker url"):
            RemoteRunner([])

    def test_malformed_suspect_csv_fails_fast_with_the_parse_error(self, fleet, tmp_path):
        """A data error is a 400 from the worker, not a fleet-wide retry storm."""
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("ssn,age,zip_code,doctor,symptom,prescription\n")
            handle.write("123,notanage,99501,Dr-A,cough,aspirin\n")
        service = fleet["service"]
        with pytest.raises(HTTPServiceError) as excinfo:
            service.detect(
                "owner", bad, dataset_id="big", runner=RemoteRunner(fleet["urls"])
            )
        assert excinfo.value.status == 400
        assert "parse" in excinfo.value.message

    def test_wrongly_typed_spec_value_is_served_400(self, fleet):
        """A worker rejects ``"level_weighting": "false"`` instead of weighting votes."""
        key = WatermarkKey.from_secret("typed-spec", eta=50)
        spec = spec_to_json(WatermarkerSpec.of(HierarchicalWatermarker(key)))
        payload = {
            "spec": dict(spec, level_weighting="false"),
            "metadata": {},
            "mark_length": 20,
            "header": "ssn,age,zip_code,doctor,symptom,prescription",
            "lines": [],
        }
        with pytest.raises(HTTPServiceError) as excinfo:
            ServiceClient(fleet["urls"][0]).detect_votes(payload)
        assert excinfo.value.status == 400
        assert "malformed watermarker spec" in excinfo.value.message
        assert "level_weighting" in excinfo.value.message

    def test_resolve_runner_rejects_bare_remote_name(self):
        with pytest.raises(ValueError, match="worker fleet"):
            resolve_runner("remote")

    def test_failure_classification_in_fleet_call(self):
        """5xx, corrupt bodies and half-written responses fail over; 4xx is fatal."""
        import http.client

        from repro.service.runners import _FleetCall
        from repro.watermarking.hierarchical import DetectionVotes
        from repro.service.wire import votes_to_json

        ok_response = {"rows": 1, "votes": votes_to_json(DetectionVotes(wmd_length=4))}

        class Stub:
            def __init__(self, error=None):
                self.error = error
                self.calls = 0

            def detect_votes(self, payload, *, headers=None):
                self.calls += 1
                if self.error is not None:
                    raise self.error
                return ok_response

        def fleet(*clients):
            return _FleetCall([(f"http://w{i}", c) for i, c in enumerate(clients)], 2)

        # Half-written response (HTTPException, not OSError) -> next worker.
        sick = Stub(http.client.IncompleteRead(b""))
        healthy = Stub()
        assert fleet(sick, healthy).post(0, {}) == ok_response
        assert sick.calls == 1 and healthy.calls == 1

        # A 200 with a corrupt body is the worker's fault -> fail over too.
        corrupt = Stub(HTTPServiceError(200, "non-JSON response body"))
        healthy = Stub()
        assert fleet(corrupt, healthy).post(0, {}) == ok_response

        # 5xx -> fail over; 4xx -> immediate raise, second worker untouched.
        crashed = Stub(HTTPServiceError(500, "internal error"))
        healthy = Stub()
        assert fleet(crashed, healthy).post(0, {}) == ok_response
        refusing = Stub(HTTPServiceError(403, "wrong token"))
        untouched = Stub()
        with pytest.raises(HTTPServiceError):
            fleet(refusing, untouched).post(0, {})
        assert untouched.calls == 0

        # Everything sick -> FleetError naming the attempts.
        with pytest.raises(FleetError, match="after 2 attempt"):
            fleet(Stub(ConnectionRefusedError()), Stub(HTTPServiceError(502, "bad gateway"))).post(0, {})

    def test_fleet_call_keeps_round_robin_on_an_idle_fleet(self):
        from repro.service.runners import _FleetCall

        class Recorder:
            def __init__(self):
                self.indices = []

            def detect_votes(self, payload, *, headers=None):
                self.indices.append(payload["index"])
                return {"rows": 0}

        clients = [Recorder(), Recorder(), Recorder()]
        call = _FleetCall([(f"http://w{i}", c) for i, c in enumerate(clients)], 2)
        for index in range(7):
            call.post(index, {"index": index})
        assert [client.indices for client in clients] == [[0, 3, 6], [1, 4], [2, 5]]

    def test_fleet_call_spreads_concurrent_chunks_by_load(self):
        """Chunks 0, 2, 4, 6 share a residue but never stack on one worker.

        Each worker's concurrent POSTs are what its keep-alive client opens
        connections for, so this is the bound behind the fleet's connection
        count.
        """
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        from repro.service.runners import _FleetCall

        release = threading.Event()

        class Blocking:
            def __init__(self):
                self.lock = threading.Lock()
                self.active = 0
                self.peak = 0

            def detect_votes(self, payload, *, headers=None):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                release.wait(10)
                with self.lock:
                    self.active -= 1
                return {"index": payload["index"]}

        clients = [Blocking(), Blocking()]
        call = _FleetCall([(f"http://w{i}", c) for i, c in enumerate(clients)], 2)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(call.post, index, {"index": index}) for index in (0, 2, 4, 6)]
            deadline = time.monotonic() + 10
            while sum(client.active for client in clients) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            results = [future.result() for future in futures]
        assert results == [{"index": index} for index in (0, 2, 4, 6)]
        assert [client.peak for client in clients] == [2, 2]


class TestFleetAuth:
    """The coordinator->worker hop honours the workers' admin (fleet) token."""

    @pytest.fixture(scope="class")
    def gated(self, tmp_path_factory):
        vault_dir = str(tmp_path_factory.mktemp("gated") / "vault")
        worker = ProtectionService(KeyVault.init(vault_dir))
        server, url = serve_worker_in_thread(ProtectionApp(worker, admin_token="fleet-secret"))
        yield url
        server.close()

    def test_missing_fleet_token_is_401_fail_fast(self, fleet, gated):
        service = fleet["service"]
        with pytest.raises(HTTPServiceError) as excinfo:
            service.detect(
                "owner", fleet["protected"], dataset_id="big", runner=RemoteRunner([gated])
            )
        assert excinfo.value.status == 401

    def test_wrong_fleet_token_is_403_fail_fast(self, fleet, gated):
        service = fleet["service"]
        with pytest.raises(HTTPServiceError) as excinfo:
            service.detect(
                "owner",
                fleet["protected"],
                dataset_id="big",
                runner=RemoteRunner([gated], token="wrong"),
            )
        assert excinfo.value.status == 403

    def test_fleet_token_authorises_the_hop(self, fleet, gated):
        service = fleet["service"]
        thread = service.detect("owner", fleet["protected"], dataset_id="big", workers=2)
        remote = service.detect(
            "owner",
            fleet["protected"],
            dataset_id="big",
            workers=2,
            runner=RemoteRunner([gated], token="fleet-secret"),
        )
        assert _outcomes_equal(remote, thread)


class TestWorkerMetrics:
    def test_workers_account_for_served_chunks(self, fleet):
        service = fleet["service"]
        service.detect(
            "owner",
            fleet["protected"],
            dataset_id="big",
            workers=2,
            runner=RemoteRunner(fleet["urls"]),
        )
        snapshots = [ServiceClient(url).metrics() for url in fleet["urls"]]
        total_rows = sum(snapshot["worker_chunks"]["rows"] for snapshot in snapshots)
        total_chunks = sum(snapshot["worker_chunks"]["chunks"] for snapshot in snapshots)
        # Chunks round-robin across the fleet, so 20k rows land in total and
        # every live worker served at least one chunk of this (or an earlier)
        # detect in the module.
        assert total_rows >= 20_000
        assert total_chunks >= 4
        for snapshot in snapshots:
            assert snapshot["requests"]["detect_votes"] >= 1
            assert snapshot["responses"].get("200", 0) >= 1
            assert snapshot["worker_chunks"]["seconds"] > 0.0

    def test_coordinator_serve_reports_remote_runner_timings(self, fleet, tmp_path):
        """A gateway 'repro serve --runner remote' records detects under 'remote'."""
        coordinator = ProtectionService(
            KeyVault(fleet["vault"]),
            executor=ShardExecutor(2, runner=RemoteRunner(fleet["urls"])),
        )
        app = ProtectionApp(coordinator)
        server, url = serve_worker_in_thread(app)
        try:
            token = KeyVault(fleet["vault"]).issue_token("owner")
            client = ServiceClient(url, token)
            payload = client.detect("owner", "big", fleet["protected"])
            assert payload["runner"] == "remote" and payload["mark_loss"] == 0.0
            snapshot = client.metrics()
            runners = snapshot["detect"]["runners"]
            assert runners["remote"]["calls"] == 1
            assert runners["remote"]["rows"] == 20_000
            assert snapshot["detect"]["rows"] == 20_000
        finally:
            server.close()
