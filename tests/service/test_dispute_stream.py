"""The streamed dispute returns the materialised verdict, field for field.

``ProtectionService.dispute`` streams the suspect CSV chunk by chunk: per
chunk the runner parses columnar, decrypts the identifying column under each
claimant's key and collects each claimant's votes; the per-claim evidence
merges in chunk order and every claim is finalised once.  These tests hold it
to the in-memory ``framework.resolve_dispute`` over the whole table — and
that, in turn, to the seed's scalar per-cell assessment — on clean and
attacked 20k-row suspects on every local runner (chunk sizes 1 and 7 on a
500-row prefix of each), plus the adversarial edges: rival claims, a wrong key, a
header-only file, quoted newlines, and a coordinator whose default runner is
a fleet.
"""

import csv
import os
import socket

import pytest

from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import SubsetDeletionAttack
from repro.attacks.ownership_attacks import AdditiveMarkAttack, SubtractiveMarkAttack
from repro.crypto.cipher import FieldEncryptor
from repro.datagen.medical import generate_medical_table
from repro.relational.io import write_csv_rows
from repro.relational.table import Table
from repro.service import KeyVault, ProtectionService, RemoteRunner, ShardExecutor
from repro.service.api import suspect_view
from repro.service.http import ProtectionApp, ServiceClient
from repro.service.http.prefork import serve_worker_in_thread
from repro.service.streaming import iter_rows
from repro.watermarking.ownership import (
    ClaimAssessment,
    DisputeVerdict,
    OwnershipClaim,
    claim_watermarker,
)

ROWS = 20_000

#: runner name -> (runner, workers); "serial" is one thread worker.
RUNNERS = {"serial": ("thread", 1), "thread": ("thread", 2), "process": ("process", 2)}


def _seed_assessment(registry, disputed, claim) -> ClaimAssessment:
    """The seed's assessment: scalar per-cell decryption, float-accumulated mean."""
    encryptor = FieldEncryptor(claim.encryption_key)
    clear, decryption_ok = [], True
    for row in disputed.table:
        for column in disputed.identifying_columns:
            try:
                clear.append(encryptor.decrypt(str(row[column])))
            except (ValueError, UnicodeDecodeError):
                decryption_ok = False
    recomputed, statistic_ok = None, False
    if decryption_ok:
        values = [float(int(text)) for text in clear if text.isdigit()]
        if values:
            recomputed = sum(values) / len(values)
            statistic_ok = abs(recomputed - claim.registered_statistic) < registry._tau
        else:
            decryption_ok = False
    expected = registry.mark_for_statistic(claim.registered_statistic)
    detected = claim_watermarker(claim).detect(disputed, registry.mark_length)
    bit_errors = detected.mark.hamming_distance(expected)
    return ClaimAssessment(
        claimant=claim.claimant,
        decryption_ok=decryption_ok,
        statistic_ok=statistic_ok,
        mark_matches=bit_errors <= registry._max_bit_errors and claim.mark.bits == expected.bits,
        recomputed_statistic=recomputed,
        mark_bit_errors=bit_errors,
    )


class Env:
    """A vault with one 20k-row protected dataset and its suspects on disk."""

    def __init__(self, base):
        self.base = base
        self._references = {}
        self.vault = str(base / "vault")
        raw = str(base / "raw.csv")
        self.clean = str(base / "clean.csv")
        generate_medical_table(size=ROWS, seed=2005).to_csv(raw)
        service = ProtectionService(KeyVault.init(self.vault), audit=False)
        service.register_tenant("owner", k=20, eta=50)
        service.protect("owner", raw, self.clean, dataset_id="d")
        self.schema = service.schema
        self.trees = service.trees
        self.record = service.vault.tenant("owner")
        self.framework = service.framework_for("owner")
        self.claims = service.claim_store.claims("d")

        # Alteration then deletion, the attacks of Figure 12a and 12c.
        altered = SubsetAlterationAttack(0.3, seed=11).run(self.view(self.clean)).attacked
        attacked = SubsetDeletionAttack(0.2, seed=12).run(altered).attacked
        self.attacked = self.write("attacked.csv", attacked.table)

    def view(self, path):
        """The materialised suspect, read exactly as the seed's dispute read it."""
        table = Table(self.schema, iter_rows(path, self.schema))
        return suspect_view(
            table, self.trees, self.schema, k=self.record.k, metrics_depth=self.record.metrics_depth
        )

    def write(self, name, table):
        path = str(self.base / name)
        write_csv_rows(path, self.schema, table)
        return path

    def service(self, runner="thread", workers=2, chunk_size=10_000, executor=None):
        executor = executor or ShardExecutor(workers, runner=runner)
        return ProtectionService(
            KeyVault(self.vault), executor=executor, chunk_size=chunk_size, audit=False
        )

    def reference(self, path, claims=None):
        """The in-memory verdict over the materialised table (cached per input)."""
        claims = list(claims or self.claims)
        key = (path, tuple(claim.claimant for claim in claims))
        if key not in self._references:
            self._references[key] = self.framework.resolve_dispute(self.view(path), claims)
        return self._references[key]

    def prefix(self, source, rows):
        """The first *rows* records of the suspect at *source*, as a CSV of its own."""
        stem = os.path.splitext(os.path.basename(source))[0]
        path = str(self.base / f"{stem}-{rows}.csv")
        with open(source, encoding="utf-8") as handle:
            lines = handle.readlines()[: rows + 1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        return path


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return Env(tmp_path_factory.mktemp("dispute-stream"))


def _suspect(env, which):
    return env.clean if which == "clean" else env.attacked


class TestInMemoryPath:
    @pytest.mark.parametrize("which", ["clean", "attacked"])
    def test_resolve_dispute_equals_the_seed_assessment(self, env, which):
        binned = env.view(_suspect(env, which))
        registry = env.framework.registry
        verdict = env.reference(_suspect(env, which))
        seed = DisputeVerdict(
            tuple(_seed_assessment(registry, binned, claim) for claim in env.claims)
        )
        assert verdict == seed
        assert verdict.winner == "owner"


class TestVerdictIdentity:
    @pytest.mark.parametrize("which", ["clean", "attacked"])
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_streamed_equals_materialised(self, env, which, runner):
        name, workers = RUNNERS[runner]
        suspect = _suspect(env, which)
        streamed = env.service(name, workers).dispute("owner", suspect, dataset_id="d")
        assert streamed == env.reference(suspect)
        assert streamed.assessments[0].recomputed_statistic is not None
        assert streamed.winner == "owner"

    @pytest.mark.parametrize("which", ["clean", "attacked"])
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("chunk_size", [1, 7])
    def test_small_chunks(self, env, which, runner, chunk_size):
        # Every chunk pays a task's fixed cost (and, on processes, one pickled
        # plan), so tiny chunks run over a 500-row prefix of each suspect:
        # plenty of boundaries at a fraction of the time.
        name, workers = RUNNERS[runner]
        path = env.prefix(_suspect(env, which), 500)
        streamed = env.service(name, workers, chunk_size).dispute("owner", path, dataset_id="d")
        assert streamed == env.reference(path)


class TestEdgeCases:
    def test_rival_claims_from_ownership_attacks(self, env):
        owner_view = env.view(env.clean)
        additive = AdditiveMarkAttack(seed=2, eta=50, copies=4).run(owner_view, 20)
        subtractive = SubtractiveMarkAttack(seed=4, eta=50, copies=4).run(owner_view, 20)
        # Attack 1: both marks are in the disputed table.
        attacked = env.write("additive.csv", additive.attack.attacked.table)
        rivals = (additive.attacker_claim, subtractive.attacker_claim)
        for suspect, runner in ((attacked, "process"), (env.clean, "thread")):
            name, workers = RUNNERS[runner]
            streamed = env.service(name, workers, chunk_size=4_000).dispute(
                "owner", suspect, dataset_id="d", extra_claims=rivals
            )
            assert streamed == env.reference(suspect, env.claims + list(rivals))
            assert streamed.winner == "owner"
            assert streamed.valid_claimants == ["owner"]

    def test_wrong_encryption_key_claimant(self, env):
        owner = env.claims[0]
        impostor = OwnershipClaim(
            claimant="impostor",
            registered_statistic=owner.registered_statistic,
            mark=owner.mark,
            watermark_key=owner.watermark_key,
            encryption_key="not-the-owner-key",
            copies=owner.copies,
            code=owner.code,
        )
        for runner in sorted(RUNNERS):
            name, workers = RUNNERS[runner]
            streamed = env.service(name, workers, chunk_size=8_000).dispute(
                "owner", env.attacked, dataset_id="d", extra_claims=(impostor,)
            )
            assert streamed == env.reference(env.attacked, env.claims + [impostor])
            rejected = streamed.assessments[1]
            assert rejected.decryption_ok is False and rejected.recomputed_statistic is None
            assert streamed.winner == "owner"

    def test_header_only_suspect(self, env):
        path = str(env.base / "header-only.csv")
        with open(env.clean, encoding="utf-8") as handle:
            header = handle.readline()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header)
        reference = env.reference(path)
        for runner in sorted(RUNNERS):
            name, workers = RUNNERS[runner]
            streamed = env.service(name, workers).dispute("owner", path, dataset_id="d")
            assert streamed == reference
            assessment = streamed.assessments[0]
            assert assessment.decryption_ok is False
            assert assessment.mark_bit_errors == reference.assessments[0].mark_bit_errors
            assert streamed.winner is None

    def test_quoted_newline_suspect(self, env):
        """Quoted cells spanning lines must not move a chunk boundary mid-record."""
        with open(env.attacked, newline="", encoding="utf-8") as handle:
            header, *body = list(csv.reader(handle))
        for index in range(0, 600, 3):
            body[index][-1] = body[index][-1] + '\nsee "note"\n'
        path = str(env.base / "quoted.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(body[:600])
        reference = env.reference(path)
        for runner in sorted(RUNNERS):
            for chunk_size in (1, 7):
                name, workers = RUNNERS[runner]
                streamed = env.service(name, workers, chunk_size).dispute(
                    "owner", path, dataset_id="d"
                )
                assert streamed == reference


class _NoPostRunner(RemoteRunner):
    """A fleet runner that fails the test if any chunk is ever POSTed."""

    def _post_stream(self, payloads, max_workers):
        raise AssertionError("a dispute chunk was POSTed to the detect fleet")


def _dead_url() -> str:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


class TestRemoteCoordinator:
    """``repro serve --runner remote``: disputes run locally, keys stay home."""

    def test_dispute_falls_back_to_the_local_runner(self, env):
        executor = ShardExecutor(2, runner=_NoPostRunner([_dead_url()]))
        service = env.service(executor=executor)
        assert service._executor.runner_name == "remote"
        assert service.dispute("owner", env.attacked, dataset_id="d") == env.reference(
            env.attacked
        )

    def test_remote_runner_refuses_a_dispute(self, env):
        with pytest.raises(ValueError, match="decryption keys"):
            list(_NoPostRunner([_dead_url()]).dispute_csv(None, env.attacked, max_workers=1))

    def test_served_dispute_over_http(self, env):
        executor = ShardExecutor(2, runner=_NoPostRunner([_dead_url()]))
        server, url = serve_worker_in_thread(ProtectionApp(env.service(executor=executor)))
        try:
            token = KeyVault(env.vault).issue_token("owner")
            payload = ServiceClient(url, token).dispute("owner", "d", env.attacked)
        finally:
            server.close()
        reference = env.reference(env.attacked)
        assert payload["winner"] == reference.winner == "owner"
        assert [a["mark_bit_errors"] for a in payload["assessments"]] == [
            a.mark_bit_errors for a in reference.assessments
        ]

