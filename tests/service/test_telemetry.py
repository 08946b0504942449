"""End-to-end telemetry: identical outputs, assembled traces, scrape surface.

The observability ISSUE's acceptance bar: protect/detect outputs are
byte/bit-identical with tracing on or off across every runner; one traced
detect through a live 2-worker fleet assembles a single trace covering every
named pipeline stage on the coordinator *and* the worker side; and
``/metrics?format=prometheus`` renders a parsable exposition with latency
histograms.
"""

import filecmp
import json
import urllib.request

import pytest

from repro.datagen.medical import generate_medical_table
from repro.service import KeyVault, ProtectionService
from repro.service.http import ProtectionApp, ServiceClient
from repro.service.http.app import TRACE_RESPONSE_HEADER
from repro.service.http.prefork import serve_worker_in_thread
from repro.telemetry.trace import TRACE_HEADER, Tracer, activate

#: Stage spans one traced detect must cover, per the pipeline's named stages.
DETECT_STAGES = {
    "service.detect",
    "detect.parse",
    "detect.collect",
    "detect.merge",
    "detect.finalize",
}

#: Stage spans one traced dispute must cover.
DISPUTE_STAGES = {
    "service.dispute",
    "dispute.parse",
    "dispute.decrypt",
    "dispute.collect",
    "dispute.finalize",
}

PROTECT_STAGES = {
    "service.protect",
    "protect.pass1",
    "protect.pass1.parse",
    "protect.pass1.count",
    "protect.parse",
    "protect.encrypt_generalize",
    "protect.embed",
    "protect.serialize",
    "protect.splice",
}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """A protected 4k-row workload over a fresh vault."""
    base = tmp_path_factory.mktemp("telemetry")
    raw = str(base / "raw.csv")
    protected = str(base / "protected.csv")
    generate_medical_table(size=4_000, seed=77).to_csv(raw)
    vault_dir = str(base / "vault")
    service = ProtectionService(KeyVault.init(vault_dir), chunk_size=1_000)
    service.register_tenant("owner", k=20, eta=50)
    service.protect("owner", raw, protected, dataset_id="data")
    return {"base": str(base), "vault": vault_dir, "raw": raw, "protected": protected}


def _detect_key(outcome) -> tuple:
    return (
        str(outcome.mark),
        outcome.rows,
        outcome.tuples_selected,
        outcome.positions_with_votes,
        outcome.coverage,
        outcome.mark_loss,
    )


class TestOutputsUnchangedByTracing:
    """Telemetry must observe the pipeline, never steer it."""

    @pytest.mark.parametrize("runner", ["serial", "thread", "process"])
    def test_protect_bytes_identical(self, env, runner, tmp_path):
        workers = None if runner == "serial" else 2
        runner_name = None if runner == "serial" else runner
        plain_vault = str(tmp_path / "plain")
        traced_vault = str(tmp_path / "traced")
        for vault_dir in (plain_vault, traced_vault):
            service = ProtectionService(KeyVault.init(vault_dir), chunk_size=1_000)
            # Identical explicit secrets: the two vaults must be byte-level
            # twins so any output difference can only come from tracing.
            service.register_tenant(
                "owner", k=20, eta=50, encryption_key="E-seed", watermark_secret="W-seed"
            )
        plain_out = str(tmp_path / "plain.csv")
        traced_out = str(tmp_path / "traced.csv")
        ProtectionService(KeyVault(plain_vault), chunk_size=1_000).protect(
            "owner", env["raw"], plain_out, dataset_id="d", workers=workers, runner=runner_name
        )
        tracer = Tracer()
        with activate(tracer):
            ProtectionService(KeyVault(traced_vault), chunk_size=1_000).protect(
                "owner",
                env["raw"],
                traced_out,
                dataset_id="d",
                workers=workers,
                runner=runner_name,
            )
        assert filecmp.cmp(plain_out, traced_out, shallow=False)
        # The same vault secrets were registered, so identical bytes prove
        # tracing perturbed nothing; the trace itself must still be complete.
        names = {span.name for span in tracer.spans}
        if runner == "serial":
            assert PROTECT_STAGES - {"protect.parse"} <= names
        else:
            assert PROTECT_STAGES <= names

    @pytest.mark.parametrize("runner", ["serial", "thread", "process"])
    def test_detect_bit_identical(self, env, runner):
        service = ProtectionService(KeyVault(env["vault"]), chunk_size=1_000)
        workers = None if runner == "serial" else 2
        runner_name = None if runner == "serial" else runner
        plain = service.detect(
            "owner", env["protected"], dataset_id="data", workers=workers, runner=runner_name
        )
        tracer = Tracer()
        with activate(tracer):
            traced = service.detect(
                "owner", env["protected"], dataset_id="data", workers=workers, runner=runner_name
            )
        assert _detect_key(plain) == _detect_key(traced)
        assert traced.mark_loss == 0.0
        names = {span.name for span in tracer.spans}
        assert DETECT_STAGES <= names

    @pytest.mark.parametrize("runner", ["thread", "process"])
    def test_dispute_verdict_identical(self, env, runner):
        def service():
            return ProtectionService(
                KeyVault(env["vault"]), chunk_size=1_000, runner=runner, audit=False
            )

        plain = service().dispute("owner", env["protected"], dataset_id="data")
        tracer = Tracer()
        with activate(tracer):
            traced = service().dispute("owner", env["protected"], dataset_id="data")
        assert traced == plain
        assert traced.winner == "owner"
        names = {span.name for span in tracer.spans}
        assert DISPUTE_STAGES <= names
        # One parse per chunk, one finalize per dispute.
        assert sum(span.name == "dispute.parse" for span in tracer.spans) == 4
        assert sum(span.name == "dispute.finalize" for span in tracer.spans) == 1

    def test_process_runner_spans_come_from_foreign_pids(self, env):
        """Pool workers are real processes; their spans carry their own origin."""
        service = ProtectionService(KeyVault(env["vault"]), chunk_size=1_000)
        tracer = Tracer()
        with activate(tracer):
            service.detect(
                "owner", env["protected"], dataset_id="data", workers=2, runner="process"
            )
        origins = {span.origin for span in tracer.spans}
        assert len(origins) >= 2, origins
        collect_origins = {s.origin for s in tracer.spans if s.name == "detect.collect"}
        assert tracer.origin not in collect_origins or len(collect_origins) > 1
        assert all(span.trace_id == tracer.trace_id for span in tracer.spans)

    def test_untraced_run_records_nothing(self, env):
        service = ProtectionService(KeyVault(env["vault"]), chunk_size=1_000)
        outcome = service.detect("owner", env["protected"], dataset_id="data")
        assert outcome.rows == 4_000  # and no tracer existed to record into


class TestFleetTrace:
    """One traced detect through two live workers = one assembled trace."""

    @pytest.fixture(scope="class")
    def workers(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fleetspans")
        servers, urls, apps = [], [], []
        for name in ("w1", "w2"):
            worker = ProtectionService(KeyVault.init(str(base / name)))
            app = ProtectionApp(worker)
            server, url = serve_worker_in_thread(app)
            servers.append(server)
            urls.append(url)
            apps.append(app)
        yield urls, apps
        for server in servers:
            server.close()

    def test_trace_covers_coordinator_and_worker_stages(self, env, workers, remote_runner):
        urls, _ = workers
        service = ProtectionService(KeyVault(env["vault"]), chunk_size=1_000)
        tracer = Tracer()
        with activate(tracer):
            traced = service.detect(
                "owner",
                env["protected"],
                dataset_id="data",
                workers=2,
                runner=remote_runner(urls),
            )
        assert traced.runner == "remote"
        spans = tracer.spans
        names = {span.name for span in spans}
        # Coordinator side: orchestration + merge/finalize; worker side:
        # parse/frame/collect (shipped back in the detect-votes response
        # body) plus the worker's own http.request span.
        assert DETECT_STAGES <= names
        assert "http.client.detect_votes" in names
        assert "http.request" in names
        assert all(span.trace_id == tracer.trace_id for span in spans)
        # Every chunk hop produced one worker-side collect span.
        hops = [s for s in spans if s.name == "http.client.detect_votes"]
        collects = [s for s in spans if s.name == "detect.collect"]
        assert len(hops) == 4  # 4k rows / 1k chunk size
        assert len(collects) == len(hops)
        # And the result still matches a thread detect bit for bit.
        thread = service.detect("owner", env["protected"], dataset_id="data", workers=2)
        assert _detect_key(traced) == _detect_key(thread)

    def test_untraced_fleet_detect_ships_no_spans(self, env, workers, remote_runner):
        urls, apps = workers
        service = ProtectionService(KeyVault(env["vault"]), chunk_size=1_000)
        outcome = service.detect(
            "owner", env["protected"], dataset_id="data", workers=2, runner=remote_runner(urls)
        )
        assert outcome.rows == 4_000


class TestHTTPTraceSurface:
    @pytest.fixture(scope="class")
    def served(self, env):
        service = ProtectionService(KeyVault(env["vault"]), chunk_size=1_000)
        app = ProtectionApp(service)
        server, url = serve_worker_in_thread(app)
        token = KeyVault(env["vault"]).issue_token("owner")
        yield url, app, token
        server.close()

    def test_detect_returns_trace_in_header_only(self, env, served):
        url, _, token = served
        tracer = Tracer()
        with ServiceClient(url, token) as client:
            plain = client.detect("owner", "data", env["protected"])
            with activate(tracer):
                traced = client.detect("owner", "data", env["protected"])
        # The response *body* is identical — the trace rode the header and
        # was ingested into the client's ambient tracer.
        assert plain == traced
        names = {span.name for span in tracer.spans}
        assert "http.client.detect" in names
        assert "http.request" in names
        assert DETECT_STAGES <= names

    def test_protect_round_trip_with_trace(self, env, served, tmp_path):
        url, _, token = served
        out = str(tmp_path / "out.csv")
        tracer = Tracer()
        with ServiceClient(url, token) as client, activate(tracer):
            report = client.protect("owner", "traced-proto", env["raw"], out)
        assert report["rows"] == 4_000
        names = {span.name for span in tracer.spans}
        assert "http.client.protect" in names
        assert "service.protect" in names

    def test_invalid_trace_header_is_ignored(self, env, served):
        url, _, _ = served
        request = urllib.request.Request(
            f"{url}/healthz", headers={TRACE_HEADER: "NOT-A-TRACE-ID-<script>"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert TRACE_RESPONSE_HEADER not in dict(response.getheaders())

    def test_prometheus_endpoint(self, served):
        url, _, _ = served
        with urllib.request.urlopen(f"{url}/metrics?format=prometheus", timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_unknown_metrics_format_is_400(self, served):
        url, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/metrics?format=xml", timeout=10)
        excinfo.value.close()  # the error carries the open 400 response
        assert excinfo.value.code == 400

    def test_unknown_route_counted(self, served):
        url, app, _ = served
        before = app.metrics.snapshot()["requests"].get("unknown", 0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/no/such/route", timeout=10)
        excinfo.value.close()  # the error carries the open 404 response
        assert excinfo.value.code == 404
        snapshot = app.metrics.snapshot()
        assert snapshot["requests"]["unknown"] == before + 1
        # And the 404 shows up in the per-route latency histograms too.
        assert snapshot["latency"]["requests"]["unknown"]["count"] >= before + 1

    def test_request_latency_recorded_per_route(self, served):
        url, app, _ = served
        urllib.request.urlopen(f"{url}/healthz", timeout=10).close()
        snapshot = app.metrics.snapshot()
        health = snapshot["latency"]["requests"]["healthz"]
        assert health["count"] >= 1
        assert health["sum_seconds"] >= 0.0

    def test_json_metrics_remains_default(self, served):
        url, _, _ = served
        with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
            document = json.loads(response.read())
        assert "requests" in document and "latency" in document
