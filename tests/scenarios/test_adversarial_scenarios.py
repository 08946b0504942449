"""Adversarial scenario suite: realistic attack and deployment narratives.

Each scenario exercises a whole storyline — incremental publication, stacked
attack pipelines, multi-tenant vaults — rather than a single component, and
every detection path runs on the serial, thread-pool and process-pool
runners to pin their bit-identical merge semantics.
"""

import pytest

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import SubsetDeletionAttack
from repro.binning.binner import BinnedTable
from repro.relational.table import Table
from repro.service.executor import ShardExecutor
from repro.watermarking.mark import mark_loss

# (runner, workers) pairs every detection scenario runs on.  The default
# runner with one worker runs every chunk inline, in the calling thread.
RUNNERS = [
    pytest.param((None, 1), id="serial"),
    pytest.param(("thread", 4), id="thread"),
    pytest.param(("process", 4), id="process"),
]

#: Rows per CSV chunk: every 1,500-row scenario table spans several chunks.
CHUNK_SIZE = 400


@pytest.fixture(scope="module")
def detect_on(detect_via_csv):
    """``detect_on(runner_workers, watermarker, binned, mark_length)`` over a CSV."""

    def detect(runner_workers, watermarker, binned, mark_length):
        runner, workers = runner_workers
        executor = ShardExecutor(workers, runner=runner)
        return detect_via_csv(executor, watermarker, binned, mark_length, chunk_size=CHUNK_SIZE)

    return detect


def concatenate(first: BinnedTable, second: BinnedTable) -> BinnedTable:
    """Append *second*'s rows after *first*'s, sharing metadata."""
    combined = Table.concat(first.table.schema, (first.table, second.table))
    return BinnedTable(
        table=combined,
        trees=first.trees,
        identifying_columns=first.identifying_columns,
        quasi_columns=first.quasi_columns,
        ultimate_nodes=dict(first.ultimate_nodes),
        maximal_nodes=dict(first.maximal_nodes),
        minimal_nodes=dict(first.minimal_nodes),
        k=first.k,
    )


class TestIncrementalAppend:
    """The owner publishes a base table, then later appends a delta batch.

    Tuple selection and position assignment hash each row independently, so
    watermarking the delta separately (same secret, same mark) and appending
    it must be indistinguishable from having protected everything at once.
    """

    @pytest.fixture(scope="class")
    def appended(self, protection_framework, protected_small):
        binned = protected_small.binned
        split = 1000
        base, delta = binned.slice(0, split), binned.slice(split, len(binned.table))
        watermarker = protection_framework.watermarker()
        base_marked = watermarker.embed(base, protected_small.mark).watermarked
        delta_marked = watermarker.embed(delta, protected_small.mark).watermarked
        return concatenate(base_marked, delta_marked)

    def test_append_is_identical_to_whole_table_embed(self, appended, protected_small):
        assert appended.table == protected_small.watermarked.table

    @pytest.mark.parametrize("runner_workers", RUNNERS)
    def test_mark_recovered_from_appended_table(
        self, detect_on, runner_workers, appended, protection_framework, protected_small
    ):
        watermarker = protection_framework.watermarker()
        report = detect_on(runner_workers, watermarker, appended, len(protected_small.mark))
        assert report.mark == protected_small.mark
        assert mark_loss(protected_small.mark, report.mark) == 0.0

    @pytest.mark.parametrize("runner_workers", RUNNERS)
    def test_delta_alone_still_carries_the_mark(
        self, detect_on, runner_workers, protection_framework, protected_small
    ):
        # A thief who republishes only the freshly appended rows still loses:
        # the delta batch alone recovers most of the mark.
        binned = protected_small.binned
        delta = binned.slice(1000, len(binned.table))
        watermarker = protection_framework.watermarker()
        delta_marked = watermarker.embed(delta, protected_small.mark).watermarked
        report = detect_on(runner_workers, watermarker, delta_marked, len(protected_small.mark))
        assert mark_loss(protected_small.mark, report.mark) <= 0.25


class TestMixedAttackPipeline:
    """Alteration, then deletion, then bogus additions — stacked in sequence."""

    @pytest.fixture(scope="class")
    def attacked(self, protected_small):
        stage1 = SubsetAlterationAttack(0.2, seed=101).run(protected_small.watermarked).attacked
        stage2 = SubsetDeletionAttack(0.2, seed=102).run(stage1).attacked
        stage3 = SubsetAdditionAttack(0.25, seed=103).run(stage2).attacked
        return stage3

    @pytest.mark.parametrize("runner_workers", RUNNERS)
    def test_majority_vote_survives_the_pipeline(
        self, detect_on, runner_workers, attacked, protection_framework, protected_small
    ):
        watermarker = protection_framework.watermarker()
        report = detect_on(runner_workers, watermarker, attacked, len(protected_small.mark))
        assert report.code == "repetition"
        assert mark_loss(protected_small.mark, report.mark) <= 0.35

    @pytest.mark.parametrize("runner_workers", RUNNERS)
    def test_soft_decoding_never_does_worse(
        self, detect_on, runner_workers, attacked, protection_framework, protected_small
    ):
        watermarker = protection_framework.watermarker()
        hard = detect_on(runner_workers, watermarker, attacked, len(protected_small.mark))
        soft = detect_on(
            runner_workers, watermarker.with_code("soft"), attacked, len(protected_small.mark)
        )
        assert soft.code == "soft"
        hard_loss = mark_loss(protected_small.mark, hard.mark)
        soft_loss = mark_loss(protected_small.mark, soft.mark)
        assert soft_loss <= hard_loss
        assert len(soft.bit_confidence) == len(protected_small.mark)

    def test_runners_agree_bit_for_bit(
        self, detect_on, attacked, protection_framework, protected_small
    ):
        watermarker = protection_framework.watermarker()
        reports = [
            detect_on(runner_workers.values[0], watermarker, attacked, len(protected_small.mark))
            for runner_workers in RUNNERS
        ]
        reference = reports[0]
        for report in reports[1:]:
            assert report.mark == reference.mark
            assert report.wmd_bits == reference.wmd_bits
            assert report.votes_cast == reference.votes_cast
            assert report.bit_confidence == reference.bit_confidence


class TestMultiTenantCollision:
    """Two tenants share one vault; their marks must never cross-detect."""

    @pytest.fixture(scope="class")
    def tenancy(self, tmp_path_factory):
        from repro.datagen.medical import generate_medical_table
        from repro.service import KeyVault, ProtectionService

        root = tmp_path_factory.mktemp("tenancy")
        raw = str(root / "claims.csv")
        generate_medical_table(size=1200, seed=71).to_csv(raw)
        vault = KeyVault.init(str(root / "vault"))
        service = ProtectionService(vault)
        outputs = {}
        for tenant in ("alice", "bob"):
            service.register_tenant(tenant, k=10, eta=20, epsilon=5)
            output = str(root / f"{tenant}.csv")
            service.protect(tenant, raw, output, dataset_id=f"claims-{tenant}")
            outputs[tenant] = output
        return service, outputs

    def test_identical_data_collides_marks_but_not_secrets(self, tenancy):
        # The mark is F(statistic-of-identifiers) — a function of the data,
        # not the tenant — so two tenants protecting the same rows hold the
        # *same* mark bits.  Tenant separation rests entirely on the secrets.
        service, _ = tenancy
        alice = service.vault.dataset("alice", "claims-alice")
        bob = service.vault.dataset("bob", "claims-bob")
        assert alice.mark_bits == bob.mark_bits
        assert (
            service.vault.tenant("alice").watermark_secret
            != service.vault.tenant("bob").watermark_secret
        )

    @pytest.mark.parametrize("workers", [1, 4], ids=["serial", "parallel"])
    def test_own_mark_detects_cleanly(self, tenancy, workers):
        service, outputs = tenancy
        for tenant in ("alice", "bob"):
            outcome = service.detect(
                tenant, outputs[tenant], dataset_id=f"claims-{tenant}", workers=workers
            )
            assert outcome.mark_loss == 0.0
            assert outcome.matches is True

    def test_cross_detection_fails(self, tenancy):
        # Bob's secrets read noise out of Alice's table: roughly half the
        # mark bits disagree, nowhere near a valid detection.
        service, outputs = tenancy
        alice_mark = service.vault.dataset("alice", "claims-alice").mark_bits
        outcome = service.detect("bob", outputs["alice"], dataset_id="claims-bob")
        recovered = outcome.mark
        disagreement = sum(
            1 for a, b in zip(alice_mark, recovered) if a != b
        ) / len(alice_mark)
        assert disagreement > 0.2
        assert outcome.matches is not True
