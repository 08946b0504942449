"""Registration is a value: verbs running at once on one service never cross datasets.

A service caches one framework per tenant; the framework holds no dataset
state, so the statistic and mark a protect registers (and the claim it
stores) come from that protect's own pass 1, whatever detects or protects of
other datasets run meanwhile on the same service.
"""

import sys
import threading

import pytest

from repro.datagen.medical import generate_medical_table
from repro.relational.table import Table
from repro.service import KeyVault, ProtectionService
from repro.service.executor import ShardExecutor
from repro.service.http import ProtectionApp, ServiceClient
from repro.service.http.prefork import serve_worker_in_thread
from repro.service.vault import DatasetRecord

TENANT = {"k": 10, "eta": 20, "epsilon": 5, "encryption_key": "ek", "watermark_secret": "ws"}


def _sequential_ssn_csv(path, size, start, seed):
    """A medical table whose SSNs are ``start + i``: its statistic sits far from random data's."""
    base = generate_medical_table(size=size, seed=seed)
    rows = [dict(row, ssn=str(start + index)) for index, row in enumerate(base)]
    Table(base.schema, rows).to_csv(str(path))
    return str(path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``a`` (random SSNs, mean ~5e8) plus ``b`` and ``c`` (sequential SSNs, means ~1e8/2e8)."""
    root = tmp_path_factory.mktemp("verbs")
    a = str(root / "a.csv")
    generate_medical_table(size=3000, seed=1).to_csv(a)
    return {
        "a": a,
        "b": _sequential_ssn_csv(root / "b.csv", 1000, 100_000_000, seed=2),
        "c": _sequential_ssn_csv(root / "c.csv", 2000, 200_000_000, seed=3),
    }


def _assert_claim_matches_record(service, dataset):
    record = service.vault.dataset("owner", dataset)
    [claim] = service.claim_store.claims(dataset)
    assert claim.claimant == "owner"
    assert claim.registered_statistic == record.registered_statistic
    assert str(claim.mark) == record.mark_bits


class _HookedExecutor(ShardExecutor):
    """Runs ``during_protect`` inside protect's pass 2: after the mark is fixed, before the claim."""

    def __init__(self):
        super().__init__(2, runner="thread")
        self.during_protect = None

    def protect_csv(self, *args, **kwargs):
        if self.during_protect is not None:
            self.during_protect()
        return super().protect_csv(*args, **kwargs)


class TestInterleavedVerbs:
    def test_detect_inside_protect_pass2_leaves_the_claim_alone(self, inputs, tmp_path):
        executor = _HookedExecutor()
        service = ProtectionService(
            KeyVault.init(str(tmp_path / "vault")), executor=executor, chunk_size=500
        )
        service.register_tenant("owner", **TENANT)
        released_b = str(tmp_path / "b-protected.csv")
        service.protect("owner", inputs["b"], released_b, dataset_id="b")

        detects = []
        executor.during_protect = lambda: detects.append(
            service.detect("owner", released_b, dataset_id="b")
        )
        released_a = str(tmp_path / "a-protected.csv")
        outcome = service.protect("owner", inputs["a"], released_a, dataset_id="a")

        [detected_b] = detects
        assert detected_b.mark_loss == 0.0
        b_statistic = service.vault.dataset("owner", "b").registered_statistic
        assert b_statistic == pytest.approx(100_000_499.5)
        assert abs(outcome.registered_statistic - b_statistic) > 1e8
        _assert_claim_matches_record(service, "a")
        _assert_claim_matches_record(service, "b")
        assert service.vault.dataset("owner", "a").registered_statistic == outcome.registered_statistic

        verdict = service.dispute("owner", released_a, dataset_id="a")
        assert verdict.winner == "owner"
        assert verdict.assessments[0].statistic_ok
        assert verdict.assessments[0].mark_bit_errors == 0

    def test_corrupt_dataset_record_makes_detect_raise(self, inputs, tmp_path):
        service = ProtectionService(KeyVault.init(str(tmp_path / "vault")), runner="thread")
        service.register_tenant("owner", **TENANT)
        released = str(tmp_path / "b-protected.csv")
        outcome = service.protect("owner", inputs["b"], released, dataset_id="b")
        record = service.vault.dataset("owner", "b")
        flipped = ("1" if outcome.mark[0] == "0" else "0") + outcome.mark[1:]
        service.vault.record_dataset(
            "owner",
            DatasetRecord(
                dataset_id="b",
                registered_statistic=record.registered_statistic,
                mark_bits=flipped,
                rows=record.rows,
            ),
        )
        with pytest.raises(ValueError, match=r"stored mark does not match F\(statistic\)"):
            service.detect("owner", released, dataset_id="b")


class TestConcurrentVerbsOverHTTP:
    def test_concurrent_protects_and_detects_keep_their_own_claims(self, inputs, tmp_path):
        service = ProtectionService(
            KeyVault.init(str(tmp_path / "vault")), runner="thread", chunk_size=500
        )
        service.register_tenant("owner", **TENANT)
        token = service.vault.issue_token("owner")
        released_b = str(tmp_path / "b-protected.csv")
        service.protect("owner", inputs["b"], released_b, dataset_id="b")

        server, url = serve_worker_in_thread(ProtectionApp(service))
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the verbs' threads finely
        protects_done = threading.Event()
        reports, detects, errors = {}, [], []

        def protect(dataset):
            try:
                with ServiceClient(url, token) as client:
                    for _ in range(2):
                        reports[dataset] = client.protect(
                            "owner", dataset, inputs[dataset], str(tmp_path / f"{dataset}-out.csv")
                        )
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def detect_loop():
            try:
                with ServiceClient(url, token) as client:
                    while True:
                        detects.append(client.detect("owner", "b", released_b))
                        if protects_done.is_set():
                            break
            except Exception as exc:
                errors.append(exc)

        try:
            protects = [threading.Thread(target=protect, args=(name,)) for name in ("a", "c")]
            detector = threading.Thread(target=detect_loop)
            detector.start()
            for thread in protects:
                thread.start()
            for thread in protects:
                thread.join(timeout=120)
            protects_done.set()
            detector.join(timeout=120)
        finally:
            sys.setswitchinterval(switch_interval)
            server.close()

        assert not any(thread.is_alive() for thread in [*protects, detector])
        assert errors == []
        assert detects and all(report["mark_loss"] == 0.0 for report in detects)
        statistics = {name: reports[name]["registered_statistic"] for name in ("a", "c")}
        assert abs(statistics["a"] - statistics["c"]) > 1e8
        for dataset in ("a", "b", "c"):
            _assert_claim_matches_record(service, dataset)
        for dataset in ("a", "c"):
            assert service.vault.dataset("owner", dataset).registered_statistic == statistics[dataset]
